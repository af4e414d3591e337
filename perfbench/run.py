"""End-to-end and per-layer benchmark of the matsync CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  One process drives ``matsync.cli.main(argv)``
in-process as a closed loop with one caller: each command starts when the
previous one has returned, and commands cycle through the workload's list
until ``--seconds`` have passed.  Every output is checked by an independent
oracle outside the timed region.  BLAS and OpenMP run on one thread, and the
process and its set-up children on one CPU.

Op and set-up times are wall times scaled to a nominal host speed by a
calibration block timed every 0.2 s, also in the middle of an op (calib.py):
on a shared host the raw wall times of the same code move by up to 2x from
minute to minute.  The wall figures are printed next to the scaled ones.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics.  The last line of standard output is one JSON object;
the lines before it give every metric by name with its unit, the full
per-layer table, and the provenance of the run, which is also written with
the spans under ``.perfbench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calib  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUPS = 5          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10    # samples required beyond the reported tail percentile


def benchmark_spec():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


# --- set-up --------------------------------------------------------------------


def set_up(workload, seed, directory, scale, count):
    """Write the workload's documents `count` times, each in a fresh interpreter.

    Returns the time of each (interpreter start, ``import matsync`` and writing
    the documents), as wall time and scaled to the nominal host speed by the
    calibration samples taken just before and after it.  The children run on
    this process's CPU (pin_to_one_cpu), so those samples measure their speed;
    none is taken while a child runs, as it would share the CPU with the child.
    """
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.py")
    argv = [sys.executable, script, "--workload", workload, "--seed", str(seed),
            "--dir", directory, "--scale", scale]
    wall, spans_ = [], []
    with calib.Tracker(timer=False) as cal:
        for k in range(count):
            if k:
                cal.take()
            t0 = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            t1 = time.perf_counter()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            wall.append(t1 - t0)
            spans_.append((t0, t1))
    return wall, [cal.scaled(t0, t1, dt) for (t0, t1), dt in zip(spans_, wall)]


# --- the closed loop -------------------------------------------------------------


class Verifier:
    """Oracle checks per op; repeated identical outputs reuse the first verdict."""

    def __init__(self, wl, directory):
        self.wl, self.dir = wl, directory
        self.seen = {}      # op index -> (digest, work) of an accepted output

    def __call__(self, i, op, rc, data):
        digest = hashlib.blake2b(data).hexdigest() if data is not None else None
        key = (rc, digest)
        if self.seen.get(i, (None,))[0] == key:
            return [], self.seen[i][1]
        try:
            problems, work = self.check(op, rc, data)
        except (ValueError, IndexError) as e:  # UnicodeDecodeError is a ValueError
            problems, work = [f"{op.kind} {op.case}: unreadable output ({e!r})"], 0
        if not problems:
            self.seen[i] = (key, work)
        return problems, work

    def check(self, op, rc, data):
        case = self.wl.cases[op.case]
        if data is None and rc == 0:
            return [f"{op.kind} {op.case}: exit 0 but no output"], 0
        if op.kind != "simulate":
            text = data.decode() if data is not None else ""
        if op.kind == "check":
            return oracle.check_report(case, rc, text), op.work
        if op.kind == "gains":
            return oracle.check_gains(case, op, rc, text), op.work
        if op.kind == "sweep":
            return oracle.check_sweep(case, op, rc, text), op.work
        argv = op.argv
        seed = int(argv[argv.index("--seed") + 1])
        horizon = float(argv[argv.index("--horizon") + 1])
        if case.domain == "continuous":
            h = float(argv[argv.index("--step") + 1])
            steps = int(round(horizon / h))
        else:
            h, steps = None, max(1, int(round(horizon)))
        x0 = np.random.default_rng(seed).standard_normal(case.q * case.n)
        with open(argv[argv.index("--gains") + 1].format(dir=self.dir)) as fh:
            gains_text = fh.read()
        return oracle.check_simulate(case, op, rc, data or b"", gains_text, x0, steps, h)


def run_loop(cli, wl, directory, verify, seconds, min_ops=1, on_output=None, timer=True):
    """Cycle through the workload's ops until they have taken `seconds` and at
    least `min_ops` have run; one sample per op.  Only op latency counts
    towards `seconds`, so the oracle's first checks do not shorten the run.
    Each sample carries the op's wall latency, calibration time taken out, and
    that latency scaled to the nominal host speed (calib.py).  Without `timer`
    the calibration runs only between ops."""
    samples = []
    busy = 0.0
    with calib.Tracker(timer) as cal:
        while busy < seconds or len(samples) < min_ops:
            for i, op in enumerate(wl.ops):
                if busy >= seconds and len(samples) >= min_ops:
                    break
                out = os.path.join(directory, f"op{i}.out")
                if os.path.exists(out):
                    os.remove(out)
                argv = [a.format(dir=directory) for a in op.argv] + ["--out", out]
                if not timer and time.perf_counter() - cal.times[-1] >= calib.INTERVAL_S:
                    cal.take()
                with contextlib.redirect_stderr(io.StringIO()):
                    spent = cal.spent
                    t0 = time.perf_counter()
                    try:
                        rc = cli.main(argv)
                    except Exception as e:  # an op that raises counts as failed
                        rc, problems = None, [f"{op.kind} {op.case}: raised {e!r}"]
                    t1 = time.perf_counter()
                    dt = t1 - t0 - (cal.spent - spent)
                busy += dt
                data = None
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        data = fh.read()
                if rc is not None:
                    problems, work = verify(i, op, rc, data)
                else:
                    work = 0
                samples.append(dict(op=i, kind=op.kind, wall=dt, span=(t0, t1), ok=not problems,
                                    problems=problems, work=work if not problems else 0))
                if on_output is not None:
                    on_output(op, data)
                # the output is not held while the next op runs: peak_rss_mb is
                # the program's, not the harness's
                data = None
    for smp in samples:
        smp["latency"] = cal.scaled(*smp.pop("span"), smp["wall"])
    return samples, cal


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at least
    TAIL_BEYOND samples beyond it.  When that percentile would fall below the
    median (fewer than 21 ops), the slowest op is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    idx = n - TAIL_BEYOND - 1
    if idx < n // 2:
        return xs[-1], 100.0, 0
    return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1


def summarize(samples):
    """Latency median and tail, and throughput as total work over total op time,
    all from latencies scaled to the nominal host speed; the same from wall time."""
    lat = [s["latency"] for s in samples]
    wall = [s["wall"] for s in samples]
    work = sum(s["work"] for s in samples)
    value, pct, beyond = tail(lat)
    return dict(
        wall_op_p50_s=statistics.median(wall),
        wall_op_tail_s=tail(wall)[0],
        wall_work_per_s=work / sum(wall),
        op_p50_s=statistics.median(lat),
        op_tail_s=value,
        tail_percentile=pct,
        tail_beyond=beyond,
        work=work,
        work_per_s=work / sum(lat),
        attempted=len(samples),
        failed=sum(not s["ok"] for s in samples),
    )


# --- provenance ------------------------------------------------------------------


def git_commit():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def pin_to_one_cpu():
    """Run on one CPU; the set-up subprocesses inherit it.  The calibration
    samples then measure the CPU that the timed code runs on, which on a shared
    host may be slower or faster than its sibling.  Returns the CPUs allowed before."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed


MMAP_THRESHOLD = 128 * 1024


def fix_mmap_threshold():
    """Keep glibc's mmap threshold at its initial 128 KiB.  By default it rises
    each time a large block is freed, and in one long-lived process running op
    after op the heap then fragments into a peak RSS that depends on the order
    of the ops' allocation sizes (a seed-dependent 147 or 155 MB on
    long_horizon), which a single CLI command never sees.  The price is a page
    fault on each fresh page of every large block: measured against the
    default, sweep ops ran about 10% slower and the other workloads' 1-3%.
    Returns the threshold set, or None where mallopt is not available."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    M_MMAP_THRESHOLD = -3
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def provenance(seed, load_at_start, cpus_allowed, mmap_threshold):
    import scipy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "matsync", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(
        seed=seed,
        git_commit=git_commit(),
        source_sha256=digest.hexdigest(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        thread_pins={v: os.environ.get(v) for v in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        nproc=os.cpu_count(),
        cpus_allowed=cpus_allowed,
        malloc_mmap_threshold=mmap_threshold,
        pinned_to=sorted(os.sched_getaffinity(0)),
        loadavg_at_start=load_at_start,
    )


# --- one run -------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, scale="full", setups=SETUPS):
    """Set up, run the closed loop, check every output; returns the result record."""
    load_at_start = os.getloadavg()
    cpus_allowed = pin_to_one_cpu()
    mmap_threshold = fix_mmap_threshold()
    matsync = inputs.import_matsync()
    from matsync import cli

    os.makedirs(OUT_DIR, exist_ok=True)
    directory = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        setup_wall, setup_times = set_up(workload, seed, directory, scale,
                                         setups if not trace else 1)
        wl = inputs.build_workload(workload, seed, matsync, scale)
        verify = Verifier(wl, directory)
        record = dict(workload=workload, seed=seed, seconds=seconds, trace=trace,
                      provenance=provenance(seed, load_at_start, cpus_allowed,
                                                  mmap_threshold))
        if not trace:
            samples, cal = run_loop(cli, wl, directory, verify, seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            s = summarize(samples)
            record.update(summary=s, setup_times=setup_times, setup_wall=setup_wall,
                          calibration=cal.summary())
            metrics = dict(
                setup_s=statistics.median(setup_times),
                op_p50_s=s["op_p50_s"],
                op_tail_s=s["op_tail_s"],
                work_per_s=s["work_per_s"],
                peak_rss_mb=rss_mb,
            )
        else:
            # each half runs at least one whole cycle, so every layer is traced
            cycle = len(wl.ops)
            # no calibration inside ops: the handler's time would land in spans
            plain, _ = run_loop(cli, wl, directory, verify, seconds / 2, cycle, timer=False)
            rec = spans.SpanRecorder()
            csv = dict(rows=0, bytes=0)

            def on_output(op, data):
                if op.kind == "simulate" and data is not None:
                    csv["rows"] += data.count(b"\n") - 2
                    csv["bytes"] += len(data)

            rec.install()
            try:
                traced, _ = run_loop(cli, wl, directory, verify, seconds / 2, cycle, on_output,
                                     timer=False)
            finally:
                rec.uninstall()
            rec.save(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.npz"))
            samples = plain + traced
            s = summarize(samples)
            metrics = layer_metrics(rec, csv, summarize(plain), summarize(traced), traced)
            record.update(summary=s)
        record["metrics"] = metrics
        record["problems"] = sorted({p for smp in samples for p in smp["problems"]})
        record["ops"] = [[smp["op"], smp["kind"], smp["wall"], smp["latency"], smp["ok"]]
                         for smp in samples]
        record["work_unit"] = wl.work_unit
        return record
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def layer_metrics(rec, csv, plain, traced, traced_samples):
    """Every per-layer figure: calls and self time per function and per layer,
    the named counters, and the tracing overhead."""
    m = rec.table()
    for name in ("simulation.steps", "simulation.diverged", "simulation.state_bytes_computed",
                 "gains.find_common_P.infeasible", "gains.find_common_P.success"):
        m[name] = rec.counts.get(name, 0)
    calls = m.get("gains.find_common_P.calls", 0)
    m["gains.find_common_P.success_ratio"] = (
        m["gains.find_common_P.success"] / calls if calls else 0.0)
    m["cli.csv_rows"] = csv["rows"]
    m["cli.csv_bytes"] = csv["bytes"]
    # self times telescope: over each root span they sum to its duration
    layer_self = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
    m["trace.root_s"] = rec.root_seconds()
    m["trace.layer_self_sum_s"] = layer_self
    # op time that no layer's self time accounts for
    m["trace.untraced_s"] = sum(s["wall"] for s in traced_samples) - layer_self
    m["trace.overhead_s"] = traced["op_p50_s"] - plain["op_p50_s"]
    return m


# --- reporting ---------------------------------------------------------------------


def report(record, spec):
    """Print the text report and return the result line's object."""
    trace = record["trace"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    s = record["summary"]
    m = record["metrics"]
    lines = [f"# workload {record['workload']} seed {record['seed']} "
             f"trace {trace} seconds {record['seconds']}"]
    if not trace:
        unit = record["work_unit"]
        cal = record["calibration"]
        lines += [
            "# times are scaled to the nominal host speed (calib.py); wall figures follow",
            f"setup_s {m['setup_s']!r} s (median of {len(record['setup_times'])} set-ups; "
            f"wall {statistics.median(record['setup_wall'])!r} s)",
            f"op_p50_s {m['op_p50_s']!r} s (median of {s['attempted']} ops; "
            f"wall {s['wall_op_p50_s']!r} s)",
            f"op_tail_s {m['op_tail_s']!r} s " + (
                f"(p{s['tail_percentile']:.2f} of {s['attempted']} ops, "
                f"{s['tail_beyond']} samples beyond" if s["tail_beyond"] else
                f"(slowest of {s['attempted']} ops: too few for a percentile above the "
                f"median with {TAIL_BEYOND} samples beyond it") +
            f"; wall {s['wall_op_tail_s']!r} s)",
            f"{unit}_per_s {m['work_per_s']!r} 1/s (reported as work_per_s; "
            f"{s['work']} {unit} in {sum(op[3] for op in record['ops'])!r} s of op time; "
            f"wall {s['wall_work_per_s']!r} 1/s)",
            f"peak_rss_mb {m['peak_rss_mb']!r} MB",
            f"fail_ratio {s['failed'] / s['attempted']!r} ({s['failed']}/{s['attempted']})",
            f"calibration {cal['samples']} samples, block median {cal['block_median_s']!r} s "
            f"(min {cal['block_min_s']!r}, max {cal['block_max_s']!r}; "
            f"nominal {calib.NOMINAL_S!r})",
        ]
    else:
        for k in sorted(m):
            lines.append(f"layer {k} {m[k]!r}")
        lines.append(f"fail_ratio {s['failed'] / s['attempted']!r} ({s['failed']}/{s['attempted']})")
    for p in record["problems"][:20]:
        lines.append(f"problem {p}")
    lines.append("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("\n".join(lines))
    metrics = {}
    for entry in wanted:
        if entry["name"] not in m:
            raise KeyError(f"metric {entry['name']} is not measured")
        metrics[entry["name"]] = {"value": m[entry["name"]], "unit": entry["unit"]}
    return {
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="matsync CLI benchmark")
    p.add_argument("--workload", choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the benchmark's own self-test")
    args = p.parse_args(argv)
    if args.smoke:
        import smoke

        return smoke.main()
    if args.workload is None:
        p.error("--workload is required")
    spec = benchmark_spec()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = report(record, spec)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1, default=float)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
