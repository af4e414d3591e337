"""Command-line front end: check, gains, simulate, sweep, example.

Each ``assumption_*`` line of ``check`` is its recipe's own verdict: true
exactly when ``gains --recipe`` exits 0, since both run the one call
``gains.synthesize`` (theorem1 for ``assumption_cl_detectability``, alg1 and
alg2 for ``assumption_neutral_ct`` and ``_dt``).  A verdict covers the whole
recipe: its hypotheses, finite gains and, for alg2, ``eps_bar``'s refusal of
a reduced Laplacian that is asymmetric or not finite.

Each value has one source: ``gains --alpha`` is theorem1's, ``simulate
--step`` continuous time's (DEFAULT_STEP without it), ``sweep --alpha-max``
a sweep's of more than one point (DEFAULT_ALPHA_MAX without it), and the
discrete-time coupling step is the gains document's ``epsilon`` line, else
its ``eps_bar``.

Exit codes: 0 success; 1 with ``error: ...`` on stderr for a usage error
(an option the command does not read included), an unreadable file, a bad
option or any malformed document (builder
parameters and gains that do not fit the spec included); 2 with
``hypothesis failed: ...`` (``check`` prints its report and nothing on
stderr); 3 divergence.  Only
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
import warnings

import numpy as np

from . import builders, gains as gainsmod, simulation, specdoc
from .array_model import CONTINUOUS
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


# the step of a continuous-time simulate run without --step
DEFAULT_STEP = 1e-3
# the last alpha of a sweep of more than one point without --alpha-max
DEFAULT_ALPHA_MAX = 100.0
# the rule of a float option that must be > 0
POSITIVE = (float, "finite and > 0", lambda x: math.isfinite(x) and x > 0.0)


def _add_number(p, flag, rule, **kwargs):
    """Add an option argparse reads by rule, (type, need, test): text the type
    cannot read is argparse's error naming the type, and a value failing the
    test a SpecParseError naming flag, which argparse passes on to main."""
    kind, need, ok = rule

    def read(text):
        if not ok(value := kind(text)):
            raise SpecParseError(f"{flag} must be {need}, got {value!r}")
        return value

    read.__name__ = kind.__name__
    p.add_argument(flag, type=read, **kwargs)


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


def cmd_example(args):
    _write(args.out, specdoc.serialize_example(builders.builtin_example(args.name)))
    return EXIT_OK


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


# each recipe's line in the check report, after "assumption_"
ASSUMPTIONS = {"theorem1": "cl_detectability", "alg1": "neutral_ct", "alg2": "neutral_dt"}


def _verdict(recipe, facts, alpha):
    """Whether gains --recipe exits 0: synthesize runs without refusing,
    with its warning left to gains."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            gainsmod.synthesize(recipe, facts, alpha)
        except MatsyncError:
            return False
    return True


def cmd_check(args):
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec
    facts = gainsmod._Facts(spec, doc.P, tol)
    cls = spec.stability
    lines = [
        f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}",
        f"symmetric {_bool(spec.symmetric)}", f"connected {_bool(spec.connected)}",
        f"complete {_bool(spec.graph.is_complete())}",
        f"stability {spec.time_domain} {cls.kind}", f"marginal_count {cls.marginal_count}",
        *(f"detectable {i + 1} {j + 1} {_bool(ok)}" for (i, j), ok in spec.detectable.items()),
    ]
    verdicts = {recipe: _verdict(recipe, facts, doc.alpha)
                for recipe, domain in gainsmod.RECIPES.items() if domain == spec.time_domain}
    if "theorem1" in verdicts and spec.symmetric and spec.connected:
        cert = facts.certificate
        c14 = gainsmod._condition14(cert, spec)
        if c14.lambda2:
            lines.append(f"lambda2 {_fmt(c14.lambda2)}")
        lines += [f"cl_feasible {_bool(cert.feasible)}", f"eps {_fmt(cert.eps)}",
                  f"sigma {_fmt(cert.sigma)}"]
        if cert.feasible and c14.lambda2:
            lines += [f"condition14_delta {_fmt(c14.delta)}",
                      f"condition14_holds {_bool(c14.holds)}"]
    lines += [f"assumption_{ASSUMPTIONS[recipe]} {_bool(ok)}" for recipe, ok in verdicts.items()]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if any(verdicts.values()) else EXIT_HYPOTHESIS


def cmd_gains(args):
    if args.alpha is not None and args.recipe != gainsmod.RECIPE_THEOREM1:
        raise SpecParseError(f"--alpha applies to --recipe {gainsmod.RECIPE_THEOREM1}")
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec
    alpha = args.alpha if args.alpha is not None else doc.alpha
    gs = gainsmod.synthesize(args.recipe, gainsmod._Facts(spec, doc.P, tol), alpha, args.force)
    if gs.recipe == gainsmod.RECIPE_THEOREM1:
        cert, c14 = gs.certificate
        metadata = {"cert_eps": cert.eps, "cert_sigma": cert.sigma, "cert_lambda2": c14.lambda2,
                    "cert_delta": c14.delta, "cert_condition14": c14.holds}
        fields = {"P": cert.P if doc.P is None else doc.P, "metadata": metadata}
    else:
        fields = {"metadata": {"n1": gs.certificate.n1}}
    _write(args.out, specdoc.serialize_gains_document(gs, spec.q, spec.n, **fields))
    return EXIT_OK


def cmd_simulate(args):
    doc = specdoc.parse_spec_document(_read(args.spec))
    gdoc = specdoc.parse_gains_document(_read(args.gains))
    spec = doc.spec
    if (gdoc.q, gdoc.n) != (spec.q, spec.n):
        raise SpecParseError(
            f"gains are for q={gdoc.q}, n={gdoc.n}; spec has q={spec.q}, n={spec.n}"
        )
    ct = spec.time_domain == CONTINUOUS
    if not ct and args.step is not None:
        raise SpecParseError("--step applies to continuous time")
    h = DEFAULT_STEP if args.step is None else args.step
    if ct and args.horizon < h:
        raise SpecParseError(f"--horizon {args.horizon!r} is shorter than --step {h!r}")
    if not ct and args.horizon != round(args.horizon):
        raise SpecParseError(f"--horizon {args.horizon!r} is not a whole number of steps")
    steps = args.horizon / h if ct else round(args.horizon)
    if steps > simulation.MAX_STEPS:
        raise SpecParseError(
            f"--horizon {args.horizon!r} needs {steps:.3g} steps; "
            f"at most {simulation.MAX_STEPS} fit"
        )
    try:
        cl = simulation.closed_loop(spec, gdoc.gain_set, epsilon=gdoc.epsilon)
    except DimensionMismatch as e:  # a missing gain, one of the wrong shape or one off the edges
        raise SpecParseError(str(e)) from e
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(spec.q * spec.n)
    try:
        if ct:
            trace = simulation.simulate_ct(cl, x0, T=args.horizon, h=h)
        else:
            trace = simulation.simulate_dt(cl, x0, K=steps)
    except Diverged as e:  # its trace ends before the crossing, and its verdict is diverged
        trace = e.trace
    verdict = trace.verdict()
    _write(args.out, trace_csv(trace, verdict))
    return EXIT_DIVERGED if verdict == "diverged" else EXIT_OK


def cmd_sweep(args):
    if args.points == 1 and args.alpha_max is not None:
        raise SpecParseError("--alpha-max applies to --points above 1")
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
        alpha_max = DEFAULT_ALPHA_MAX if args.alpha_max is None else args.alpha_max
        alphas = np.logspace(np.log10(args.alpha_min), np.log10(alpha_max), args.points)
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


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as SpecParseError, for main to report as exit 1;
    subcommand parsers are of this class too."""

    def error(self, message):
        raise SpecParseError(f"{message}\n{self.format_usage().rstrip()}")


def make_parser():
    parser = _Parser(
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
    p.add_argument("--recipe", required=True, choices=list(gainsmod.RECIPES))
    _add_number(p, "--alpha", (float, "finite", math.isfinite), help="theorem1 only")
    p.add_argument("--force", action="store_true",
                   help="emit gains even when a hypothesis fails")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="integrate the closed loop from a seeded x0")
    p.add_argument("--spec", required=True)
    p.add_argument("--gains", required=True)
    _add_number(p, "--seed", (int, ">= 0", lambda k: k >= 0), default=0)
    _add_number(p, "--horizon", POSITIVE, default=100.0,
                help="final time (CT) or whole step count (DT)")
    _add_number(p, "--step", POSITIVE, help=f"continuous time only (default {DEFAULT_STEP})")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="closed-loop spectral abscissa vs coupling")
    p.add_argument("--spec", required=True)
    _add_number(p, "--alpha-min", POSITIVE, default=0.1)
    _add_number(p, "--alpha-max", POSITIVE, help=f"with --points above 1 (default {DEFAULT_ALPHA_MAX})")
    _add_number(p, "--points", (int, ">= 1", lambda k: k >= 1), default=50)
    p.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser():
    """make_parser(), built once per process: building it costs ~1 ms a call."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
