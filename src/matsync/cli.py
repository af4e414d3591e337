"""Command-line front end: check, gains, simulate, sweep, example.

Exit codes: 0 success, 1 IO/parse failure, 2 hypothesis failure,
3 divergence.  Set MATSYNC_TOL (finite, >= 0) to override, for check,
gains and sweep, the spec's edge tolerance (which decides absent edges and
equal mirrors) and the strict-inequality margin of the feasibility checks.
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
from .array_model import (
    CONTINUOUS,
    DISCRETE,
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
from .spectral import NEUTRALLY_STABLE, STABLE, classify_stability, detectable_edges

EXIT_OK = 0
EXIT_IO = 1
EXIT_HYPOTHESIS = 2
EXIT_DIVERGED = 3

# cells formatted per write of a trace; _format_rows takes 32 bytes a cell in
# its largest array (the four scale doubles of _round_scaled; a cell's record
# of uint32 words is 24 or 28 bytes), so each array of a chunk stays under
# glibc's 128 KiB mmap threshold and comes from the heap instead of freshly
# mapped pages
CSV_CHUNK_CELLS = 3072
FREXP_MIN, FREXP_MAX = -1073, 1024  # frexp exponents of finite nonzero doubles


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


def _cl_certificate(doc, tol):
    """The CL-detectability certificate of the document's P, else of a searched P.

    A failed search gives its least-violating P.  That P is infeasible under
    the default margin, but can pass a smaller margin tol set by MATSYNC_TOL.
    With tol None, the search's own certificate is the one of its P.
    """
    spec, P = doc.spec, doc.P
    if P is None:
        try:
            cert = gainsmod.find_common_P(spec)
        except Infeasible as e:
            cert = e.certificate
        if tol is None:
            return cert
        P = cert.P
    return gainsmod.verify_cl_detectability(spec, P, strict_tol=tol)


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


def cmd_check(args):
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec

    lines = [f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}"]
    report = validate_spec(spec)
    lines.append(f"symmetric {_bool(report.symmetric)}")

    g = build_graph(spec)
    connected = is_connected(g)
    lines.append(f"connected {_bool(connected)}")
    lines.append(f"complete {_bool(g.is_complete())}")

    cls = classify_stability(spec.A, spec.time_domain)
    lines.append(f"stability {spec.time_domain} {cls.kind}")
    lines.append(f"marginal_count {cls.marginal_count}")

    detectable = detectable_edges(spec, report.symmetric)
    for (i, j), ok in detectable.items():
        lines.append(f"detectable {i + 1} {j + 1} {_bool(ok)}")
    detectable_all = all(detectable.values())

    neutrally_ok = cls.kind in (NEUTRALLY_STABLE, STABLE)
    assumption_neutral = (
        report.symmetric and connected and neutrally_ok and detectable_all
    )

    assumption_cl = False
    if spec.time_domain == CONTINUOUS:
        lam2 = None
        if report.symmetric and connected:
            try:
                lam2 = normalized_laplacian(g).lambda2
                lines.append(f"lambda2 {_fmt(lam2)}")
            except (NotConnected, NotSymmetric):
                pass
        cert = None
        if report.symmetric and connected:
            cert = _cl_certificate(doc, tol)
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
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec

    if args.recipe == "theorem1":
        if spec.time_domain != CONTINUOUS:
            print("hypothesis failed: theorem1 applies to continuous time", file=sys.stderr)
            return EXIT_HYPOTHESIS
        report = validate_spec(spec)
        if not args.force:
            if not report.symmetric:
                print("hypothesis failed: edge outputs are not symmetric", file=sys.stderr)
                return EXIT_HYPOTHESIS
            if not is_connected(build_graph(spec)):
                print("hypothesis failed: graph is not connected", file=sys.stderr)
                return EXIT_HYPOTHESIS
        cert = _cl_certificate(doc, tol)
        # --force keeps an infeasible P from the document, never a failed
        # search; a failed search's P passes only a MATSYNC_TOL margin it meets
        if not cert.feasible and (doc.P is None or not args.force):
            print("hypothesis failed: CL-detectability not established", file=sys.stderr)
            return EXIT_HYPOTHESIS
        P = doc.P if doc.P is not None else cert.P
        alpha = args.alpha if args.alpha is not None else doc.alpha
        gs = gainsmod.gains_theorem1(spec, P, cert, alpha)
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
            gs = synth(spec, check=not args.force)
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


def _double_double(num, den):
    """(hi, lo): the double nearest num/den, and the double nearest the rest.

    Python's int / int is correctly rounded, so both are exact to half an ulp.
    """
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _veltkamp(a):
    """a = high + low, each with at most 26 significant bits (Dekker's split)."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _words(*columns):
    """One uint32 word per row of four byte columns (scalars broadcast)."""
    return np.stack(np.broadcast_arrays(*columns), axis=1).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _format_tables():
    """The tables of _format_rows, built on the first trace written, never at import.

    Returns (digits4, p0, scales, lead, ddde, exp2, exp3).  Column e - FREXP_MIN
    of p0 and scales belongs to frexp exponent e: a finite |x| = f 2^e,
    0.5 <= f < 1, has decimal exponent p = p0 or p0 + 1, where p0 =
    floor(log10 2^(e-1)), and scales[p - p0] holds hi, hi_high, hi_low, lo: the
    scale 2^e 10^(16-p) as the double-double hi + lo, with hi = hi_high +
    hi_low its Veltkamp split.  The rest are record words, as bytes:
    digits4[v] the four digits of v < 10^4, ddde[v] the three digits of v <
    10^3 and 'e', lead[100 s + v] the sign ('-' if s, else NUL), the first
    digit of v < 100, '.' and its second digit, and exp2 and exp3 at p -
    p0[0] the exponent p as sign, tens, units, ',' and as sign, hundreds (NUL
    if |p| < 100), tens, units.
    """
    zero = ord("0")
    v = np.arange(10**4)
    digits4 = _words(*(v[:, None] // [1000, 100, 10, 1] % 10 + zero).T)
    v = v[:1000]
    ddde = _words(v // 100 + zero, v // 10 % 10 + zero, v % 10 + zero, ord("e"))
    v = v[:200]
    lead = _words(np.where(v < 100, 0, ord("-")), v // 10 % 10 + zero, ord("."), v % 10 + zero)
    exps = np.arange(FREXP_MIN, FREXP_MAX + 1)
    # exact: no nonzero (e - 1) log10(2) in this range lies within 1e-4 of an
    # integer (tests check p0 in integer arithmetic)
    p0 = np.floor((exps - 1) * np.log10(2.0)).astype(np.int64)
    p = np.arange(p0[0], p0[-1] + 2)
    sign, a = np.where(p < 0, ord("-"), ord("+")), np.abs(p)
    tens, units = a // 10 % 10 + zero, a % 10 + zero
    exp2 = _words(sign, tens, units, ord(","))
    exp3 = _words(sign, np.where(a < 100, 0, a // 100 + zero), tens, units)
    hi = np.empty((2, len(exps)))
    lo = np.empty((2, len(exps)))
    for i, (e, p) in enumerate(zip(exps.tolist(), p0.tolist())):
        for up in (0, 1):
            k = 16 - p - up  # the scale 2^e 10^k is num / den
            num = 10 ** max(k, 0) << max(e, 0)
            den = 10 ** max(-k, 0) << max(-e, 0)
            hi[up, i], lo[up, i] = _double_double(num, den)
    scales = np.stack((hi, *_veltkamp(hi), lo), axis=1)
    return digits4, p0, scales, lead, ddde, exp2, exp3


def _round_scaled(f, index, up):
    """(N, unsure) for cells |x| = f 2^e: N = round(|x| 10^(16-p)) as int64.

    `index` is e - FREXP_MIN and p = p0 + up.  Dekker's two-product gives
    f * hi exactly as ph + pl, and ph >= 2^53 is an integer, so N = ph +
    rint(pl + f * lo).  That low part is off by less than 2^-46, so a cell
    whose low part lies within 2^-40 of a half is `unsure`: its rounding is
    too close to call this way.
    """
    hi, hi_high, hi_low, lo = _format_tables()[2][up].take(index, axis=1)
    f_high, f_low = _veltkamp(f)
    ph = f * hi
    pl = ((f_high * hi_high - ph) + f_high * hi_low + f_low * hi_high) + f_low * hi_low
    low = pl + f * lo
    r = np.rint(low)
    unsure = np.abs(np.abs(low - r) - 0.5) < 2.0**-40
    return ph.astype(np.int64) + r.astype(np.int64), unsure


def _format_rows(block):
    """The rows of a 2-D float block as CSV lines, each cell exactly '%.16e' % x.

    A cell is an optional '-', 17 significant digits and e+dd, or e+ddd when
    the decimal exponent needs three digits; float() of it is the same
    double, bit for bit.  The digits come from N = round(|x| 10^(16-p)) in
    double-double arithmetic.  The few cells whose rounding that cannot
    decide, exact decimal ties among them, take N and p from Python's '%.16e'.

    Each cell is a record of uint32 words, each word one take from a table of
    _format_tables: [s d . D1] [D2-5] [D6-9] [D10-13] [D14-16 e] [+ t u ,],
    where D1-D16 follow the first digit d and s is '-' or NUL.  If any |p| >=
    100, every record of the block has a 7th word instead: [+ h t u] [, 0 0 0],
    with h NUL when |p| < 100.  A byte that is not printed is NUL, so dropping
    the NULs of the records leaves the text.
    """
    x = block.ravel()
    if not np.isfinite(x).all():
        raise ValueError("a trace cell is not finite")
    digits4, p0, _, lead, ddde, exp2, exp3 = _format_tables()
    f, e = np.frexp(np.abs(x))
    index = e - FREXP_MIN
    n, unsure = _round_scaled(f, index, 0)
    up = np.flatnonzero(n >= 10**17)  # |x| >= 10^(p0+1), or it rounds up to that
    n[up], unsure_up = _round_scaled(f[up], index[up], 1)
    unsure[up] |= unsure_up  # an unsure first round may have chosen p wrongly
    p = p0.take(index)
    p[up] += 1
    p[x == 0] = 0
    for i in np.flatnonzero(unsure):
        digits, exponent = ("%.16e" % abs(x[i])).split("e")
        n[i], p[i] = int(digits.replace(".", "")), int(exponent)

    wide = p.min() <= -100 or p.max() >= 100
    words = np.empty((len(x), 7 if wide else 6), dtype=np.uint32)
    top = n // 10**15  # N = top 10^15 + high 10^7 + low
    rest = n - top * 10**15
    high = rest // 10**7
    low = (rest - high * 10**7).astype(np.int32)
    high = high.astype(np.int32)
    top = top.astype(np.int32) + np.signbit(x) * np.int32(100)
    words[:, 0] = lead.take(top)
    div = high // 10**4
    words[:, 1] = digits4.take(div)
    words[:, 2] = digits4.take(high - div * 10**4)
    div = low // 1000
    words[:, 3] = digits4.take(div)
    words[:, 4] = ddde.take(low - div * 1000)
    p -= p0[0]
    last = slice(block.shape[1] - 1, None, block.shape[1])
    if wide:
        words[:, 5] = exp3.take(p)
        words[:, 6] = ord(",")
        words[last, 6] = ord("\n")
    else:
        words[:, 5] = exp2.take(p)
        words.view(np.uint8)[last, 23] = ord("\n")
    return words.tobytes().replace(b"\0", b"").decode("ascii")


def _trace_csv(trace, verdict):
    """The trace as CSV text in chunks of about CSV_CHUNK_CELLS cells.

    Every kept row of the trace is printed; a cell is '%.16e' % x (see
    _format_rows), which parses back to the same double.
    """
    qn = trace.states.shape[1]
    yield "t," + ",".join(f"x_{k + 1}" for k in range(qn)) + ",sync_error,disagreement\n"
    step = max(1, CSV_CHUNK_CELLS // (qn + 3))
    for a in range(0, len(trace.times), step):
        yield _format_rows(np.column_stack((
            trace.times[a:a + step], trace.states[a:a + step],
            trace.sync_error[a:a + step], trace.disagreement[a:a + step],
        )))
    yield f"# verdict {verdict}\n"


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
    cl = simulation.closed_loop(spec, gdoc.gain_set, epsilon=epsilon)
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(spec.q * spec.n)
    try:
        if ct:
            trace = simulation.simulate_ct(cl, x0, T=args.horizon, h=args.step)
        else:
            trace = simulation.simulate_dt(cl, x0, K=steps)
    except Diverged as e:
        _write(args.out, _trace_csv(e.trace, "diverged"))
        return EXIT_DIVERGED
    verdict = trace.verdict()
    _write(args.out, _trace_csv(trace, verdict))
    return EXIT_DIVERGED if verdict == "diverged" else EXIT_OK


def cmd_sweep(args):
    doc, tol = _load_spec_env(args.spec)
    spec = doc.spec
    cert = _cl_certificate(doc, tol)
    if not cert.feasible:
        print("hypothesis failed: CL-detectability certificate missing", file=sys.stderr)
        return EXIT_HYPOTHESIS

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
