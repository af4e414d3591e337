"""Seeded inputs for the benchmark workloads, and the set-up step that writes them.

Every array is drawn from ``numpy.random.default_rng(seed)``, so the same
seed gives byte-identical documents.  The package sees only the documents
written here; the in-memory cases are kept for the oracle.

Run as a script, this module is the timed set-up step: a fresh interpreter
imports matsync and writes one workload's documents into a directory.

    python3 perfbench/inputs.py --workload sweep --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

WORKLOADS = ("long_horizon", "wide_array", "sweep", "synthesis")
BUNDLED = ("counterexample_asym", "chain5", "mass_spring_demo", "lc_demo")


def import_matsync():
    """Import matsync from ``src/`` of the checkout in the working directory.

    Raises SystemExit when the checkout holds no package source, so the
    benchmark never measures an installed copy by mistake.
    """
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "matsync", "__init__.py")):
        raise SystemExit(f"no matsync source under {src}; run from the repository root")
    if src not in sys.path:
        sys.path.insert(0, src)
    import matsync

    return matsync


# --- generators (ported from the test-suite helpers, with their own PBH test) ---


def pbh_detectable(C, A, domain):
    """Rank of [A - lam I; C] is full at every eigenvalue on or past the boundary."""
    n = A.shape[0]
    scale = max(np.linalg.norm(A, 2), 1.0)
    lam = np.linalg.eigvals(A)
    if domain == "continuous":
        suspect = lam[lam.real >= -1e-8 * scale]
    else:
        suspect = lam[np.abs(lam) >= 1.0 - 1e-8 * scale]
    for mu in suspect:
        smin = np.linalg.svd(np.vstack([A - mu * np.eye(n), C]), compute_uv=False)[-1]
        if smin <= 1e-6 * scale:
            return False
    return True


def random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def invertible_output(rng, n):
    return random_orthogonal(rng, n) @ np.diag(rng.uniform(0.8, 1.5, n)) @ random_orthogonal(rng, n)


def connected_edge_pairs(rng, q, extra=1):
    """Unordered pairs of a random spanning tree plus `extra` chords."""
    pairs = set()
    order = rng.permutation(q)
    for k in range(1, q):
        a, b = order[k], order[rng.integers(0, k)]
        pairs.add((min(a, b), max(a, b)))
    chords = [(i, j) for i in range(q) for j in range(i + 1, q) if (i, j) not in pairs]
    rng.shuffle(chords)
    pairs.update(chords[:extra])
    return sorted((int(i), int(j)) for i, j in pairs)


def stable_block(rng, n2, domain):
    if n2 == 0:
        return np.zeros((0, 0))
    F = rng.standard_normal((n2, n2))
    if domain == "continuous":
        shift = np.max(np.linalg.eigvals(F).real)
        return F - (shift + rng.uniform(0.3, 0.8)) * np.eye(n2)
    radius = np.max(np.abs(np.linalg.eigvals(F)))
    return F * (rng.uniform(0.3, 0.7) / max(radius, 1e-9))


def marginal_block(rng, n1, domain):
    if domain == "continuous":
        X = rng.standard_normal((n1, n1))
        return X - X.T
    blocks = []
    k = n1
    while k >= 2:
        th = rng.uniform(0.2, np.pi - 0.2)
        blocks.append(np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]))
        k -= 2
    if k == 1:
        blocks.append(np.array([[rng.choice([-1.0, 1.0])]]))
    return sla.block_diag(*blocks)


def random_neutrally_stable(rng, n, domain, dissipative=False):
    """A = T blkdiag(marginal, stable) T^-1 with a well-conditioned T.

    The marginal block has size n/2 on every seed: the cost of the PBH tests
    and of the neutral split grows with it.  `dissipative` (continuous time)
    takes T orthogonal and a stable block with negative definite symmetric
    part, so A + A' <= 0.
    """
    n1 = n // 2
    if dissipative:
        X = rng.standard_normal((n - n1, n - n1))
        stable = X - X.T - np.diag(rng.uniform(0.3, 0.8, n - n1))
        T = random_orthogonal(rng, n)
    else:
        stable = stable_block(rng, n - n1, domain)
        T = random_orthogonal(rng, n) @ np.diag(rng.uniform(0.6, 1.6, n)) @ random_orthogonal(rng, n)
    return T @ sla.block_diag(marginal_block(rng, n1, domain), stable) @ np.linalg.inv(T)


def random_symmetric_outputs(rng, pairs, A, domain, square=False):
    """Mirrored edge outputs on `pairs`, each detectable for A."""
    n = A.shape[0]
    cmap = {}
    for (i, j) in pairs:
        for _ in range(50):
            if square:
                C = invertible_output(rng, n)
            else:
                C = rng.standard_normal((int(rng.integers(1, n + 1)), n))
                C = C / np.linalg.norm(C) * rng.uniform(1.0, 2.0)
            if pbh_detectable(C, A, domain):
                break
        else:
            raise RuntimeError("could not draw a detectable edge output")
        cmap[(i, j)] = C
        cmap[(j, i)] = C
    return cmap


def random_symmetric_spec(rng, q, n, domain, square=False):
    """Connected symmetric neutral array.

    `square` (continuous time) makes every edge output invertible and the
    drift dissipative, so P = I is a common Lyapunov matrix with margin and
    the package's search stops at its first candidate on every seed.
    """
    A = random_neutrally_stable(rng, n, domain, dissipative=square)
    pairs = connected_edge_pairs(rng, q)
    return A, random_symmetric_outputs(rng, pairs, A, domain, square)


def random_complete_cl_spec(rng, q, n):
    """Complete graph with invertible edge outputs and Hurwitz drift.

    The Lyapunov solution of A'P + PA = -I is a common P, so the package's
    search stops at its warm start on every seed.
    """
    A = rng.standard_normal((n, n)) * 0.7
    A = A + (rng.uniform(-0.3, -0.05) - np.max(np.linalg.eigvals(A).real)) * np.eye(n)
    cmap = {}
    for i in range(q):
        for j in range(i + 1, q):
            cmap[(i, j)] = cmap[(j, i)] = invertible_output(rng, n)
    return A, cmap


def random_sparse_hurwitz_cl_spec(rng, q, n):
    """Sparse connected graph, Hurwitz drift and invertible edge outputs.

    The Lyapunov solution of A'P + PA = -I is a common P for every edge,
    so the package's search stops at its warm start.
    """
    A = stable_block(rng, n, "continuous")
    cmap = {}
    for (i, j) in connected_edge_pairs(rng, q, extra=q // 10):
        cmap[(i, j)] = cmap[(j, i)] = invertible_output(rng, n)
    return A, cmap


def rotation_ring(rng, q):
    """Discrete-time ring of planar rotations with detectable random outputs."""
    th = rng.uniform(0.2, np.pi - 0.2)
    A = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    pairs = [(k, k + 1) for k in range(q - 1)] + [(0, q - 1)]
    return A, random_symmetric_outputs(rng, pairs, A, "discrete")


# --- workloads ---------------------------------------------------------------


@dataclass
class Case:
    """One array: how it was generated, and the facts the oracle expects."""

    name: str
    kind: str            # neutral | cl_complete | cl_sparse | ring | bundled
    q: int
    n: int
    domain: str
    A: np.ndarray | None = None
    C: dict = field(default_factory=dict)
    P: np.ndarray | None = None
    expect_check: int = 0           # exit code of `check`
    expect_symmetric: bool = True


@dataclass
class Op:
    """One CLI command of a workload cycle; `{dir}` in argv is the input directory."""

    kind: str                       # check | gains | simulate | sweep
    case: str
    argv: list
    expect_rc: int = 0
    quotient_stable: bool = True    # gains: closed loop on the quotient is stable
    work: int = 1                   # alpha points of a sweep; arrays of a gains op


@dataclass
class Workload:
    name: str
    cases: dict
    ops: list                       # one cycle, repeated until time is up
    setup_gains: list               # gains commands the set-up step runs
    work_unit: str                  # steps | rho_points | specs


# Sizes per scale.  "full" is what the benchmark measures; "smoke" keeps
# every code path at a size that runs in about a second.
SIZES = {
    "full": dict(long_steps=200_000, wide_q=100, wide_arrays=3, wide_T=4.0,
                 sweep_q=100, sweep_arrays=4, sweep_points=5, synth_q=(5, 20, 100), synth_cl_q=(5, 20)),
    "smoke": dict(long_steps=6000, wide_q=6, wide_arrays=2, wide_T=0.2,
                  sweep_q=6, sweep_arrays=2, sweep_points=3, synth_q=(3, 5), synth_cl_q=(3,)),
}

LONG_STEP = 1e-3
WIDE_STEP = 1e-2


def _bundled(matsync, name):
    ex = matsync.builtin_example(name)
    s = ex.spec
    return Case(
        name=name, kind="bundled", q=s.q, n=s.n, domain=s.time_domain,
        A=s.A, C=dict(s.C), P=ex.P,
        expect_check=2 if name == "counterexample_asym" else 0,
        expect_symmetric=name != "counterexample_asym",
    )


def _sim_op(case, gains, seed, horizon, step=None, expect_rc=0):
    argv = ["simulate", "--spec", f"{{dir}}/{case}.spec", "--gains", f"{{dir}}/{gains}",
            "--seed", str(seed), "--horizon", repr(horizon)]
    if step is not None:
        argv += ["--step", repr(step)]
    return Op("simulate", case, argv, expect_rc=expect_rc)


def _synth_ops(case, recipe, expect_check=0, expect_gains=0, quotient_stable=True):
    return [
        Op("check", case.name, ["check", "--spec", f"{{dir}}/{case.name}.spec"],
           expect_rc=expect_check, work=0),
        Op("gains", case.name, ["gains", "--spec", f"{{dir}}/{case.name}.spec",
                                "--recipe", recipe], expect_rc=expect_gains,
           quotient_stable=quotient_stable, work=1),
    ]


def build_workload(name, seed, matsync, scale="full"):
    """The cases and the op cycle of one workload, drawn from `seed`."""
    sz = SIZES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    cases, ops, setup_gains = {}, [], []

    def add(case):
        cases[case.name] = case
        return case

    if name == "long_horizon":
        # every horizon is past the 1e5-row cap of the trace writer
        steps = sz["long_steps"]
        add(_bundled(matsync, "mass_spring_demo"))
        add(_bundled(matsync, "counterexample_asym"))
        A, C = rotation_ring(rng, 6)
        add(Case("ring", "ring", 6, 2, "discrete", A, C))
        setup_gains += [
            ("mass_spring_demo", ["--recipe", "alg1"]),
            ("ring", ["--recipe", "alg2"]),
            ("counterexample_asym", ["--recipe", "alg1", "--force"]),
        ]
        x0_seed = int(rng.integers(2**31))
        ops += [
            _sim_op("mass_spring_demo", "mass_spring_demo.gains", x0_seed,
                    steps * LONG_STEP, LONG_STEP),
            _sim_op("ring", "ring.gains", x0_seed + 1, float(steps)),
            _sim_op("counterexample_asym", "counterexample_asym.gains", x0_seed + 2,
                    steps * LONG_STEP, LONG_STEP, expect_rc=3),
        ]
        return Workload(name, cases, ops, setup_gains, "steps")

    if name == "wide_array":
        q = sz["wide_q"]
        for k in range(sz["wide_arrays"]):
            A, C = random_symmetric_spec(rng, q, 4, "continuous")
            add(Case(f"wide{k}", "neutral", q, 4, "continuous", A, C))
            setup_gains.append((f"wide{k}", ["--recipe", "alg1"]))
            ops.append(_sim_op(f"wide{k}", f"wide{k}.gains", int(rng.integers(2**31)),
                               sz["wide_T"], WIDE_STEP))
        return Workload(name, cases, ops, setup_gains, "steps")

    if name == "sweep":
        add(_bundled(matsync, "chain5"))
        small = Op("sweep", "chain5", ["sweep", "--spec", "{dir}/chain5.spec",
                                       "--points", "50"], work=50)
        points = sz["sweep_points"]
        # the eigensolve's cost varies from array to array, so each run
        # averages over several; two large sweeps per chain5 sweep keep the
        # median inside one class
        for k in range(sz["sweep_arrays"]):
            A, C = random_sparse_hurwitz_cl_spec(rng, sz["sweep_q"], 4)
            add(Case(f"sparse{k}", "cl_sparse", sz["sweep_q"], 4, "continuous", A, C))
            ops.append(Op("sweep", f"sparse{k}", [
                "sweep", "--spec", f"{{dir}}/sparse{k}.spec", "--points", str(points),
                "--alpha-min", "0.5", "--alpha-max", "50"], work=points))
            if k % 2:
                ops.append(small)
        return Workload(name, cases, ops, setup_gains, "rho_points")

    if name == "synthesis":
        for name_ in BUNDLED:
            case = add(_bundled(matsync, name_))
            if name_ == "counterexample_asym":
                ops += _synth_ops(case, "alg1", expect_check=2, expect_gains=2)
            elif name_ == "chain5":
                # CL-detectable, yet the connectivity condition fails: theorem1
                # gains leave the quotient unstable for every alpha
                ops += _synth_ops(case, "theorem1", quotient_stable=False)
            else:
                ops += _synth_ops(case, "alg1")
        for q in sz["synth_q"]:
            for domain, recipe in (("continuous", "alg1"), ("discrete", "alg2")):
                A, C = random_symmetric_spec(rng, q, 4, domain, square=domain == "continuous")
                case = add(Case(f"neutral_{domain[:2]}{q}", "neutral", q, 4, domain, A, C))
                ops += _synth_ops(case, recipe)
        for q in sz["synth_cl_q"]:
            A, C = random_complete_cl_spec(rng, q, 4)
            case = add(Case(f"cl{q}", "cl_complete", q, 4, "continuous", A, C))
            ops += _synth_ops(case, "theorem1")
        return Workload(name, cases, ops, setup_gains, "specs")

    raise ValueError(f"unknown workload {name!r}")


def write_documents(wl, directory, matsync):
    """Write every spec document, then the gains documents simulate needs."""
    from matsync import cli, specdoc

    os.makedirs(directory, exist_ok=True)
    for case in wl.cases.values():
        path = os.path.join(directory, f"{case.name}.spec")
        if case.kind == "bundled":
            rc = cli.main(["example", case.name, "--out", path])
        else:
            spec = matsync.ArraySpec(q=case.q, n=case.n, A=case.A, C=case.C,
                                     time_domain=case.domain)
            with open(path, "w") as fh:
                fh.write(specdoc.serialize_spec_document(specdoc.SpecDocument(spec=spec)))
            rc = 0
        if rc != 0:
            raise RuntimeError(f"writing {path} exited {rc}")
    for case, extra in wl.setup_gains:
        argv = ["gains", "--spec", os.path.join(directory, f"{case}.spec"),
                "--out", os.path.join(directory, f"{case}.gains")] + extra
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {rc}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--scale", default="full", choices=sorted(SIZES))
    args = p.parse_args(argv)
    matsync = import_matsync()
    write_documents(build_workload(args.workload, args.seed, matsync, args.scale),
                    args.dir, matsync)


if __name__ == "__main__":
    main()
