"""Command-line front end: check, gains, simulate, sweep, example.

Exit codes: 0 success, 1 IO/parse failure, 2 hypothesis failure,
3 divergence.  Set MATSYNC_TOL to override the default edge-detection
tolerance and the strict-inequality margin of the feasibility checks.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import builders, gains as gainsmod, simulation, specdoc
from .array_model import (
    CONTINUOUS,
    DISCRETE,
    EDGE_TOL,
    build_graph,
    is_connected,
    normalized_laplacian,
    validate_spec,
)
from .errors import (
    Diverged,
    Infeasible,
    MatsyncError,
    NotConnected,
    NotSymmetric,
    SpecParseError,
)
from .specdoc import _fmt
from .spectral import NEUTRALLY_STABLE, STABLE, classify_stability, pbh_detectable

EXIT_OK = 0
EXIT_IO = 1
EXIT_HYPOTHESIS = 2
EXIT_DIVERGED = 3

CSV_CHUNK_CELLS = 16_384  # cells formatted per write of a trace


# float options: name -> whether it must also be > 0
FLOAT_OPTIONS = {
    "alpha": False, "epsilon": False, "horizon": True, "step": True,
    "alpha_min": True, "alpha_max": True,
}


def _check_float_options(args):
    """Reject a non-finite float option, or a non-positive one that must be > 0."""
    for name, positive in FLOAT_OPTIONS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if not math.isfinite(value) or (positive and value <= 0.0):
            need = "finite and > 0" if positive else "finite"
            flag = "--" + name.replace("_", "-")
            raise SpecParseError(f"{flag} must be {need}, got {value!r}")


def _tolerances():
    """(strict_tol, edge_tol) from MATSYNC_TOL; strict_tol None keeps the default."""
    raw = os.environ.get("MATSYNC_TOL")
    if raw is None:
        return None, EDGE_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise SpecParseError(f"MATSYNC_TOL={raw!r} is not a number")
    return tol, tol


def _cl_certificate(doc, tol, edge_tol):
    """The CL-detectability certificate of the document's P, else of a searched P.

    A failed search gives its least-violating certificate, which is infeasible.
    """
    spec = doc.spec
    if doc.P is not None:
        return gainsmod.verify_cl_detectability(
            spec.A, spec, doc.P, strict_tol=tol, edge_tol=edge_tol
        )
    try:
        return gainsmod.find_common_P(spec.A, spec, edge_tol=edge_tol)
    except Infeasible as e:
        return e.certificate


def _write(path, text):
    """Write a string, or an iterable of strings, to path or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise SpecParseError(f"cannot read {path}: {e.strerror}")


def _bool(b):
    return "true" if b else "false"


def cmd_example(args):
    ex = builders.builtin_example(args.name)
    if ex.name == "mass_spring_demo":
        p = builders.MASS_SPRING_DEMO
        lines = [
            f"# {ex.description}",
            f"q {p['q']}",
            f"time_domain {CONTINUOUS}",
            "builder mass_spring",
            "masses " + " ".join(_fmt(v) for v in p["masses"]),
            "springs " + " ".join(_fmt(v) for v in p["springs"]),
        ]
        for (i, j), vals in sorted(p["damping"].items()):
            lines.append(
                f"coupling {i + 1} {j + 1} " + " ".join(_fmt(v) for v in vals)
            )
        lines.append("variant transformed")
        _write(args.out, "\n".join(lines) + "\n")
    elif ex.name == "lc_demo":
        p = builders.LC_DEMO
        lines = [
            f"# {ex.description}",
            f"q {p['q']}",
            f"time_domain {CONTINUOUS}",
            "builder lc",
            "capacitances " + " ".join(_fmt(v) for v in p["capacitances"]),
            "inductances " + " ".join(_fmt(v) for v in p["inductances"]),
        ]
        for (i, j), vals in sorted(p["conductances"].items()):
            lines.append(
                f"coupling {i + 1} {j + 1} " + " ".join(_fmt(v) for v in vals)
            )
        lines.append("variant transformed")
        _write(args.out, "\n".join(lines) + "\n")
    else:
        doc = specdoc.SpecDocument(spec=ex.spec, P=ex.P)
        _write(args.out, serialize_with_comment(doc, ex.description))
    return EXIT_OK


def serialize_with_comment(doc, comment):
    body = specdoc.serialize_spec_document(doc)
    return f"# {comment}\n{body}" if comment else body


def _load_spec(path):
    return specdoc.parse_spec_document(_read(path))


def cmd_check(args):
    doc = _load_spec(args.spec)
    spec = doc.spec
    tol, edge_tol = _tolerances()

    lines = [f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}"]
    report = validate_spec(spec)
    for v in report.violations:
        lines.append(f"violation {v}")
    lines.append(f"symmetric {_bool(report.symmetric)}")
    if not report.ok:
        _write(args.out, "\n".join(lines) + "\n")
        return EXIT_HYPOTHESIS

    g = build_graph(spec, edge_tol)
    connected = is_connected(g)
    lines.append(f"connected {_bool(connected)}")
    lines.append(f"complete {_bool(g.is_complete())}")

    cls = classify_stability(spec.A, spec.time_domain)
    lines.append(f"stability {spec.time_domain} {cls.kind}")
    lines.append(f"marginal_count {cls.marginal_count}")

    detectable_all = True
    seen = set()
    for (i, j) in spec.nonzero_edges(edge_tol):
        pair = (min(i, j), max(i, j)) if report.symmetric else (i, j)
        if pair in seen:
            continue
        seen.add(pair)
        ok = pbh_detectable(spec.C[(i, j)], spec.A, spec.time_domain)
        detectable_all = detectable_all and ok
        lines.append(f"detectable {pair[0] + 1} {pair[1] + 1} {_bool(ok)}")

    neutrally_ok = cls.kind in (NEUTRALLY_STABLE, STABLE)
    assumption_neutral = (
        report.symmetric and connected and neutrally_ok and detectable_all
    )

    assumption_cl = False
    if spec.time_domain == CONTINUOUS:
        lam2 = None
        if report.symmetric and connected:
            try:
                lam2 = normalized_laplacian(build_graph(spec, edge_tol)).lambda2
                lines.append(f"lambda2 {_fmt(lam2)}")
            except (NotConnected, NotSymmetric):
                pass
        cert = None
        if report.symmetric and connected:
            cert = _cl_certificate(doc, tol, edge_tol)
        if cert is not None:
            lines.append(f"cl_feasible {_bool(cert.feasible)}")
            lines.append(f"eps {_fmt(cert.eps)}")
            lines.append(f"sigma {_fmt(cert.sigma)}")
            if cert.feasible and lam2 is not None:
                c14 = gainsmod.condition14(cert, lam2)
                lines.append(f"condition14_delta {_fmt(c14.delta)}")
                lines.append(f"condition14_holds {_bool(c14.holds)}")
            assumption_cl = cert.feasible
        lines.append(f"assumption_cl_detectability {_bool(assumption_cl)}")
        lines.append(f"assumption_neutral_ct {_bool(assumption_neutral)}")
        ok = assumption_cl or assumption_neutral
    else:
        lines.append(f"assumption_neutral_dt {_bool(assumption_neutral)}")
        ok = assumption_neutral

    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_HYPOTHESIS


def cmd_gains(args):
    doc = _load_spec(args.spec)
    spec = doc.spec
    tol, edge_tol = _tolerances()

    if args.recipe == "theorem1":
        if spec.time_domain != CONTINUOUS:
            print("hypothesis failed: theorem1 applies to continuous time", file=sys.stderr)
            return EXIT_HYPOTHESIS
        report = validate_spec(spec)
        if not args.force:
            if not report.symmetric:
                print("hypothesis failed: edge outputs are not symmetric", file=sys.stderr)
                return EXIT_HYPOTHESIS
            if not is_connected(build_graph(spec, edge_tol)):
                print("hypothesis failed: graph is not connected", file=sys.stderr)
                return EXIT_HYPOTHESIS
        cert = _cl_certificate(doc, tol, edge_tol)
        # --force keeps an infeasible P from the document, never a failed search
        if not cert.feasible and (doc.P is None or not args.force):
            print("hypothesis failed: CL-detectability not established", file=sys.stderr)
            return EXIT_HYPOTHESIS
        P = doc.P if doc.P is not None else cert.P
        alpha = args.alpha if args.alpha is not None else doc.alpha
        gs = gainsmod.gains_theorem1(spec.A, spec, P, alpha, edge_tol=edge_tol)
        cert, c14 = gs.certificate
        metadata = {
            "cert_eps": cert.eps,
            "cert_sigma": cert.sigma,
            "cert_lambda2": c14.lambda2,
            "cert_delta": c14.delta,
            "cert_condition14": c14.holds,
        }
        text = specdoc.serialize_gains_document(
            gs, spec.q, spec.n, P=P, metadata=metadata
        )
    elif args.recipe in ("alg1", "alg2"):
        ct = args.recipe == "alg1"
        if ct != (spec.time_domain == CONTINUOUS):
            print(
                f"hypothesis failed: {args.recipe} applies to "
                f"{CONTINUOUS if ct else DISCRETE} time",
                file=sys.stderr,
            )
            return EXIT_HYPOTHESIS
        synth = gainsmod.gains_ct_neutral if ct else gainsmod.gains_dt_neutral
        try:
            gs = synth(spec.A, spec, check=not args.force, edge_tol=edge_tol)
        except MatsyncError as e:
            print(f"hypothesis failed: {e}", file=sys.stderr)
            return EXIT_HYPOTHESIS
        metadata = {"n1": gs.certificate.n1}
        epsilon = None
        if not ct:
            epsilon = args.epsilon if args.epsilon is not None else doc.epsilon
            if epsilon is None and np.isfinite(gs.eps_bar):
                epsilon = gs.eps_bar
        text = specdoc.serialize_gains_document(
            gs, spec.q, spec.n, epsilon=epsilon, metadata=metadata
        )
    else:
        raise SpecParseError(f"unknown recipe {args.recipe!r}")

    _write(args.out, text)
    return EXIT_OK


def _trace_csv(trace, verdict):
    """The trace as CSV text in chunks of about CSV_CHUNK_CELLS cells.

    Every kept row of the trace is printed; a cell is repr of the float,
    as _fmt writes it.
    """
    qn = trace.states.shape[1]
    yield "t," + ",".join(f"x_{k + 1}" for k in range(qn)) + ",sync_error,disagreement\n"
    step = max(1, CSV_CHUNK_CELLS // (qn + 3))
    for a in range(0, len(trace.times), step):
        block = np.column_stack((
            trace.times[a:a + step], trace.states[a:a + step],
            trace.sync_error[a:a + step], trace.disagreement[a:a + step],
        ))
        yield "".join([",".join(map(repr, row)) + "\n" for row in block.tolist()])
    yield f"# verdict {verdict}\n"


def cmd_simulate(args):
    doc = _load_spec(args.spec)
    gdoc = specdoc.parse_gains_document(_read(args.gains))
    spec = doc.spec
    if (gdoc.q, gdoc.n) != (spec.q, spec.n):
        raise SpecParseError(
            f"gains are for q={gdoc.q}, n={gdoc.n}; spec has q={spec.q}, n={spec.n}"
        )
    epsilon = args.epsilon if args.epsilon is not None else gdoc.epsilon
    cl = simulation.closed_loop(spec, gdoc.gain_set, epsilon=epsilon)
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(spec.q * spec.n)
    if spec.time_domain == CONTINUOUS and args.horizon < args.step:
        raise SpecParseError(
            f"--horizon {args.horizon!r} is shorter than --step {args.step!r}"
        )
    try:
        if spec.time_domain == CONTINUOUS:
            trace = simulation.simulate_ct(cl, x0, T=args.horizon, h=args.step)
        else:
            trace = simulation.simulate_dt(cl, x0, K=max(1, int(round(args.horizon))))
    except Diverged as e:
        _write(args.out, _trace_csv(e.trace, "diverged"))
        return EXIT_DIVERGED
    verdict = trace.verdict()
    _write(args.out, _trace_csv(trace, verdict))
    return EXIT_DIVERGED if verdict == "diverged" else EXIT_OK


def cmd_sweep(args):
    doc = _load_spec(args.spec)
    spec = doc.spec
    cert = _cl_certificate(doc, *_tolerances())
    if not cert.feasible:
        print("hypothesis failed: CL-detectability certificate missing", file=sys.stderr)
        return EXIT_HYPOTHESIS

    if args.points < 1:
        raise SpecParseError(f"points must be >= 1, got {args.points}")
    if args.points == 1:
        alphas = np.array([args.alpha_min])
    else:
        alphas = np.logspace(
            np.log10(args.alpha_min), np.log10(args.alpha_max), args.points
        )
    results = simulation.rho_sweep(spec, cert.P, alphas)
    lines = [f"{_fmt(a)} {_fmt(r)}" for a, r in results]
    rhos = [r for _, r in results]
    k = int(np.argmin(rhos))
    lines.append(f"# min rho {_fmt(rhos[k])} at alpha {_fmt(results[k][0])}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="matsync",
        description="synchronizability checks, gain synthesis, and simulation "
        "for arrays coupled through per-edge output matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="write a bundled example spec document")
    p.add_argument("name", choices=builders.BUILTIN_NAMES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("check", help="verify the synchronizability assumptions")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gains", help="synthesize coupling gains")
    p.add_argument("--spec", required=True)
    p.add_argument("--recipe", required=True, choices=["theorem1", "alg1", "alg2"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--force", action="store_true",
                   help="emit gains even when a hypothesis fails")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("simulate", help="integrate the closed loop from a seeded x0")
    p.add_argument("--spec", required=True)
    p.add_argument("--gains", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=100.0,
                   help="final time (CT) or step count (DT)")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="closed-loop spectral abscissa vs coupling")
    p.add_argument("--spec", required=True)
    p.add_argument("--alpha-min", type=float, default=0.1)
    p.add_argument("--alpha-max", type=float, default=100.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        _check_float_options(args)
        return args.func(args)
    except SpecParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MatsyncError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
