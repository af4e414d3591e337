"""Self-test of the benchmark, run by ``python3 perfbench/run.py --smoke``.

Runs every workload at a tiny size, untraced and traced, and asserts that
every metric BENCHMARK.json names is emitted with its unit and that no op
failed.  Then shows that the oracle rejects a perturbed rho and a flipped
simulate verdict.
"""

import os
import shutil

import inputs
import run


def check_emitted(spec, workload):
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        record = run.run_workload(workload, 1, 0.5, trace, scale="smoke", setups=1)
        result = run.report(record, spec)
        assert result["attempted"] >= 1, (workload, trace)
        assert result["correct"] and result["failed"] == 0, (workload, trace, record["problems"])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {e["name"]: e["unit"] for e in wanted}, (workload, trace)


def first_output(workload, kind, cli, matsync, directory):
    """(verifier, op, rc, text) of the first `kind` op of a smoke-size workload."""
    wl = inputs.build_workload(workload, 1, matsync, "smoke")
    inputs.write_documents(wl, directory, matsync)
    op = next(op for op in wl.ops if op.kind == kind)
    out = os.path.join(directory, "out.txt")
    rc = cli.main([a.format(dir=directory) for a in op.argv] + ["--out", out])
    with open(out) as fh:
        return run.Verifier(wl, directory), op, rc, fh.read()


def check_oracle_rejects(cli, matsync):
    directory = os.path.join(run.OUT_DIR, f"smoke-{os.getpid()}")
    try:
        verify, op, rc, text = first_output("sweep", "sweep", cli, matsync, directory)
        assert verify.check(op, rc, text.encode())[0] == []
        alpha, rho = text.splitlines()[0].split()
        nudged = float(rho) + 1e-3 * max(1.0, abs(float(rho)))
        bad = text.replace(f"{alpha} {rho}", f"{alpha} {nudged!r}", 1)
        assert verify.check(op, rc, bad.encode())[0], "perturbed rho accepted"

        verify, op, rc, text = first_output("long_horizon", "simulate", cli, matsync, directory)
        assert verify.check(op, rc, text.encode())[0] == []
        verdict = text.rstrip("\n").rsplit(" ", 1)[1]
        flipped = "diverged" if verdict != "diverged" else "converged"
        bad = text.replace(f"# verdict {verdict}", f"# verdict {flipped}")
        assert verify.check(op, rc, bad.encode())[0], "flipped verdict accepted"
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main():
    spec = run.benchmark_spec()
    for workload in inputs.WORKLOADS:
        check_emitted(spec, workload)
    matsync = inputs.import_matsync()
    from matsync import cli

    check_oracle_rejects(cli, matsync)
    print("smoke ok")
    return 0
