"""Command-line front end: check, gains, simulate, sweep, example.

Each ``assumption_*`` line of ``check`` is its recipe's own verdict: true
exactly when ``gains --recipe`` would pass that recipe's hypotheses, decided
by the same code in ``gains`` (theorem1 for ``assumption_cl_detectability``,
alg1 and alg2 for ``assumption_neutral_ct`` and ``_dt``).

Exit codes: 0 success; 1 with ``error: ...`` on stderr for an unreadable
file, a bad option or any malformed document (builder parameters and gains
that do not fit the spec included); 2 with ``hypothesis failed: ...``
(``check`` prints its report and nothing on stderr); 3 divergence.  Only
``main`` prints them: a SpecParseError or OSError exits 1, any other
MatsyncError 2.  Set MATSYNC_TOL (finite, >= 0) to override, for check,
gains and sweep, the spec's edge tolerance (which decides absent edges and
equal mirrors) and the strict-inequality margin of the feasibility checks.
``simulate`` writes tracecsv's ASCII bytes straight to ``--out``, text to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import builders, gains as gainsmod, simulation, specdoc
from .array_model import CONTINUOUS, DISCRETE
from .errors import (
    DimensionMismatch,
    Diverged,
    Infeasible,
    MatsyncError,
    SpecParseError,
)
from .specdoc import _fmt
from .tracecsv import trace_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_HYPOTHESIS = 2
EXIT_DIVERGED = 3


# float options: name -> whether it must also be > 0
FLOAT_OPTIONS = {
    "alpha": False, "epsilon": False, "horizon": True, "step": True,
    "alpha_min": True, "alpha_max": True,
}


def _check_options(args):
    """Reject a non-finite float option, a non-positive one that must be > 0,
    and a sweep of fewer than one point."""
    if getattr(args, "points", 1) < 1:
        raise SpecParseError(f"--points must be >= 1, got {args.points}")
    for name, positive in FLOAT_OPTIONS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if not math.isfinite(value) or (positive and value <= 0.0):
            need = "finite and > 0" if positive else "finite"
            flag = "--" + name.replace("_", "-")
            raise SpecParseError(f"{flag} must be {need}, got {value!r}")


def _write(path, data):
    """Write a string, or an iterable of ASCII byte chunks, to path or to
    stdout; stdout takes text, so a sys.stdout replaced by a StringIO works."""
    text = isinstance(data, str)
    if path is None:
        sys.stdout.writelines([data] if text else (c.decode("ascii") for c in data))
    else:
        with open(path, "w" if text else "wb") as fh:
            fh.writelines([data] if text else data)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise SpecParseError(f"cannot read {path}: {e.strerror}")


def _bool(b):
    return "true" if b else "false"


# bundled builder examples: name -> (builder, its parameters)
BUILDER_EXAMPLES = {
    "mass_spring_demo": ("mass_spring", builders.MASS_SPRING_DEMO),
    "lc_demo": ("lc", builders.LC_DEMO),
}


def cmd_example(args):
    ex = builders.builtin_example(args.name)
    if ex.name not in BUILDER_EXAMPLES:
        doc = specdoc.SpecDocument(spec=ex.spec, P=ex.P)
        _write(args.out, serialize_with_comment(doc, ex.description))
        return EXIT_OK
    builder, params = BUILDER_EXAMPLES[ex.name]
    lines = [
        f"# {ex.description}",
        f"q {params['q']}",
        f"time_domain {CONTINUOUS}",
        f"builder {builder}",
    ]
    for key, value in params.items():
        if isinstance(value, dict):  # edge -> coupling values
            for (i, j), vals in sorted(value.items()):
                lines.append(f"coupling {i + 1} {j + 1} " + " ".join(_fmt(v) for v in vals))
        elif key != "q":
            lines.append(f"{key} " + " ".join(_fmt(v) for v in value))
    lines.append("variant transformed")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def serialize_with_comment(doc, comment):
    body = specdoc.serialize_spec_document(doc)
    return f"# {comment}\n{body}" if comment else body


def _load_spec_env(path):
    """(document, MATSYNC_TOL or None); a set MATSYNC_TOL is the spec's edge_tol."""
    doc = specdoc.parse_spec_document(_read(path))
    raw = os.environ.get("MATSYNC_TOL")
    if raw is None:
        return doc, None
    try:
        tol = float(raw)
    except ValueError:
        raise SpecParseError(f"MATSYNC_TOL={raw!r} is not a number")
    if not math.isfinite(tol) or tol < 0.0:
        raise SpecParseError(f"MATSYNC_TOL must be finite and >= 0, got {raw!r}")
    spec = dataclasses.replace(doc.spec, edge_tol=tol)
    return dataclasses.replace(doc, spec=spec), tol


def _holds(hypotheses, *args):
    """Whether a recipe's hypothesis path from gains runs without refusing."""
    try:
        hypotheses(*args)
    except MatsyncError:
        return False
    return True


def cmd_check(args):
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec
    ct = spec.time_domain == CONTINUOUS
    facts = gainsmod._Facts(spec, doc.P, tol)
    cls = facts.classified(spec.time_domain)
    lines = [
        f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}",
        f"symmetric {_bool(facts.symmetric)}", f"connected {_bool(facts.connected)}",
        f"complete {_bool(facts.graph.is_complete())}",
        f"stability {spec.time_domain} {cls.kind}", f"marginal_count {cls.marginal_count}",
        *(f"detectable {i + 1} {j + 1} {_bool(ok)}" for (i, j), ok in facts.detectable.items()),
    ]
    # each assumption line is its recipe's own verdict
    assumption_cl = False
    if ct:
        assumption_cl = _holds(gainsmod._theorem1_hypotheses, facts)
        if _holds(gainsmod._gate, facts):
            cert = facts.certificate
            c14 = gainsmod._condition14(cert, facts.graph)
            if c14.lambda2:
                lines.append(f"lambda2 {_fmt(c14.lambda2)}")
            lines += [f"cl_feasible {_bool(cert.feasible)}", f"eps {_fmt(cert.eps)}",
                      f"sigma {_fmt(cert.sigma)}"]
            if cert.feasible and c14.lambda2:
                lines += [f"condition14_delta {_fmt(c14.delta)}",
                          f"condition14_holds {_bool(c14.holds)}"]
        lines.append(f"assumption_cl_detectability {_bool(assumption_cl)}")
    assumption_neutral = _holds(gainsmod._neutral_hypotheses, facts, spec.time_domain)
    lines.append(f"assumption_neutral_{'ct' if ct else 'dt'} {_bool(assumption_neutral)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if assumption_cl or assumption_neutral else EXIT_HYPOTHESIS


def cmd_gains(args):
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec
    ct = args.recipe != "alg2"
    if ct != (spec.time_domain == CONTINUOUS):
        raise MatsyncError(f"{args.recipe} applies to {CONTINUOUS if ct else DISCRETE} time")

    if args.recipe == "theorem1":
        facts = gainsmod._Facts(spec, doc.P, tol)
        P, cert = gainsmod._theorem1_hypotheses(facts, args.force)
        alpha = args.alpha if args.alpha is not None else doc.alpha
        gs = gainsmod.gains_theorem1(spec, P, cert, alpha, facts.graph)
        c14 = gs.certificate[1]
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
    else:
        synth = gainsmod.gains_ct_neutral if ct else gainsmod.gains_dt_neutral
        gs = synth(spec, check=not args.force)
        metadata = {"n1": gs.certificate.n1}
        epsilon = None
        if not ct:
            epsilon = args.epsilon if args.epsilon is not None else doc.epsilon
            if epsilon is None and np.isfinite(gs.eps_bar):
                epsilon = gs.eps_bar
        text = specdoc.serialize_gains_document(
            gs, spec.q, spec.n, epsilon=epsilon, metadata=metadata
        )

    _write(args.out, text)
    return EXIT_OK


def cmd_simulate(args):
    doc = specdoc.parse_spec_document(_read(args.spec))
    gdoc = specdoc.parse_gains_document(_read(args.gains))
    spec = doc.spec
    if (gdoc.q, gdoc.n) != (spec.q, spec.n):
        raise SpecParseError(
            f"gains are for q={gdoc.q}, n={gdoc.n}; spec has q={spec.q}, n={spec.n}"
        )
    if args.seed < 0:
        raise SpecParseError(f"--seed must be >= 0, got {args.seed}")
    ct = spec.time_domain == CONTINUOUS
    if ct and args.horizon < args.step:
        raise SpecParseError(
            f"--horizon {args.horizon!r} is shorter than --step {args.step!r}"
        )
    steps = args.horizon / args.step if ct else max(1, round(args.horizon))
    if steps > simulation.MAX_STEPS:
        raise SpecParseError(
            f"--horizon {args.horizon!r} needs {steps:.3g} steps; "
            f"at most {simulation.MAX_STEPS} fit"
        )
    epsilon = args.epsilon if args.epsilon is not None else gdoc.epsilon
    try:
        cl = simulation.closed_loop(spec, gdoc.gain_set, epsilon=epsilon)
    except DimensionMismatch as e:  # a missing gain, one of the wrong shape or one off the edges
        raise SpecParseError(str(e)) from e
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(spec.q * spec.n)
    try:
        if ct:
            trace = simulation.simulate_ct(cl, x0, T=args.horizon, h=args.step)
        else:
            trace = simulation.simulate_dt(cl, x0, K=steps)
    except Diverged as e:
        _write(args.out, trace_csv(e.trace, "diverged"))
        return EXIT_DIVERGED
    verdict = trace.verdict()
    _write(args.out, trace_csv(trace, verdict))
    return EXIT_DIVERGED if verdict == "diverged" else EXIT_OK


def cmd_sweep(args):
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec
    if spec.time_domain != CONTINUOUS:
        raise MatsyncError("sweep applies to continuous time")
    cert = gainsmod._Facts(spec, doc.P, tol).certificate
    if not cert.feasible:
        raise Infeasible("CL-detectability certificate missing", cert)

    if args.points == 1:
        alphas = np.array([args.alpha_min])
    else:
        alphas = np.logspace(
            np.log10(args.alpha_min), np.log10(args.alpha_max), args.points
        )
    try:
        results = simulation.rho_sweep(spec, cert.P, alphas)
    except OverflowError as e:  # an alpha too large for the quotient's entries
        raise SpecParseError(str(e)) from e
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

    p = sub.add_parser("check", help="verify the synchronizability assumptions")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gains", help="synthesize coupling gains")
    p.add_argument("--spec", required=True)
    p.add_argument("--recipe", required=True, choices=["theorem1", "alg1", "alg2"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--force", action="store_true",
                   help="emit gains even when a hypothesis fails")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="integrate the closed loop from a seeded x0")
    p.add_argument("--spec", required=True)
    p.add_argument("--gains", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=100.0,
                   help="final time (CT) or step count (DT)")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="closed-loop spectral abscissa vs coupling")
    p.add_argument("--spec", required=True)
    p.add_argument("--alpha-min", type=float, default=0.1)
    p.add_argument("--alpha-max", type=float, default=100.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser():
    """make_parser(), built once per process: building it costs ~1 ms a call."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_options(args)
        # looked up at call time, so a replaced cli.cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (SpecParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MatsyncError as e:
        print(f"hypothesis failed: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
