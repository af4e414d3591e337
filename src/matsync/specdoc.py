"""Plain-text documents for array specs and gain sets.

The format is line-oriented: ``key value`` scalars, matrix blocks headed by
``A``, ``P``, ``edge I J`` or ``gain I J`` followed by rows of numbers, and
``#`` comments.  Agent indices are 1-based in documents and 0-based in
memory.  Physical arrays can be stated declaratively with a ``builder``
block instead of matrices::

    q 3
    builder mass_spring
    masses 1.0 2.0
    springs 1.0 1.5 0.5
    coupling 1 2  0.8 0.5
    coupling 2 3  0.6 1.0
    variant transformed

Serialization always emits the materialized matrices with full round-trip
precision, so parse -> serialize -> parse is the identity on the in-memory
spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .array_model import CONTINUOUS, DISCRETE, ArraySpec
from .builders import build_lc, build_mass_spring
from .errors import SpecParseError
from .gains import GainSet


@dataclass(frozen=True)
class SpecDocument:
    spec: ArraySpec
    P: np.ndarray | None = None
    alpha: float | None = None
    epsilon: float | None = None


@dataclass(frozen=True)
class GainsDocument:
    gain_set: GainSet
    q: int
    n: int
    epsilon: float | None = None
    P: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_matrix(M) -> str:
    # tolist() gives Python floats, whose repr is _fmt's text
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return "\n".join(" ".join(map(repr, row)) for row in M.tolist())


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _floats(tokens):
    try:
        return [float(t) for t in tokens]
    except ValueError:
        return None


def _finite(vals, what, lineno):
    """vals, or SpecParseError at lineno when one of them is nan or infinite."""
    if not all(map(math.isfinite, vals)):
        raise SpecParseError(f"{what} must be finite", lineno)
    return vals


def _block_name(key):
    """A grid key as the document writes its header: A, P, edge I J, gain I J."""
    if isinstance(key, str):
        return key
    kind, (i, j) = key
    return f"{kind} {i + 1} {j + 1}"


class _Grids:
    """Collects matrix blocks: a header opens a grid, number rows fill it."""

    def __init__(self):
        self.grids = {}
        self.lines = {}  # key -> line of its header
        self._open = None

    def open(self, key, lineno):
        if key in self.grids:
            raise SpecParseError(f"duplicate matrix block {_block_name(key)}", lineno)
        self.grids[key] = []
        self.lines[key] = lineno
        self._open = key

    def feed(self, row, lineno):
        if self._open is None:
            raise SpecParseError("numeric row outside a matrix block", lineno)
        rows = self.grids[self._open]
        _finite(row, "numbers in a matrix block", lineno)
        if rows and len(rows[0]) != len(row):
            raise SpecParseError(
                f"ragged matrix block {_block_name(self._open)}: row of length {len(row)}, "
                f"expected {len(rows[0])}",
                lineno,
            )
        rows.append(row)

    def close(self):
        self._open = None

    def matrix(self, key):
        """The block as an array, None when absent; an empty block is an error."""
        rows = self.grids.get(key)
        if rows is None:
            return None
        if not rows:
            raise SpecParseError("matrix block has no rows", self.lines[key])
        return np.asarray(rows, dtype=float)


_SPEC_SCALARS = {"q": int, "n": int, "alpha": float, "epsilon": float}
_BUILDER_VECTORS = ("masses", "springs", "capacitances", "inductances")


def _edge_key(tokens, lineno, q):
    try:
        i, j = int(tokens[0]), int(tokens[1])
    except (ValueError, IndexError):
        raise SpecParseError("edge header needs two integer indices", lineno)
    if not (1 <= i <= q and 1 <= j <= q) or i == j:
        raise SpecParseError(f"edge ({i}, {j}) invalid for q={q}", lineno)
    return (i - 1, j - 1)


def parse_spec_document(text: str) -> SpecDocument:
    scalars = {}
    time_domain = None
    builder = None
    builder_args = {"coupling": {}}
    grids = _Grids()
    edge_headers = []  # in document order, which is the order of spec.C
    seen_edges = set()

    for lineno, tokens in _lines(text):
        key = tokens[0]
        if key in _SPEC_SCALARS and len(tokens) == 2:
            grids.close()
            try:
                scalars[key] = _SPEC_SCALARS[key](tokens[1])
            except ValueError:
                raise SpecParseError(f"bad value for {key}: {tokens[1]!r}", lineno)
            _finite([scalars[key]], key, lineno)
            if key == "q" and scalars[key] < 1:
                raise SpecParseError(f"q must be >= 1, got {scalars[key]}", lineno)
        elif key == "time_domain":
            grids.close()
            if len(tokens) != 2 or tokens[1] not in (CONTINUOUS, DISCRETE):
                raise SpecParseError(
                    f"time_domain must be {CONTINUOUS} or {DISCRETE}", lineno
                )
            time_domain = tokens[1]
        elif key in ("A", "P") and len(tokens) == 1:
            grids.open(key, lineno)
        elif key == "edge":
            if "q" not in scalars:
                raise SpecParseError("q must appear before the first edge", lineno)
            e = _edge_key(tokens[1:], lineno, scalars["q"])
            if e in seen_edges:
                raise SpecParseError(
                    f"duplicate edge ({e[0] + 1}, {e[1] + 1})", lineno
                )
            seen_edges.add(e)
            edge_headers.append(e)
            grids.open(("edge", e), lineno)
        elif key == "builder":
            grids.close()
            if len(tokens) != 2 or tokens[1] not in ("mass_spring", "lc"):
                raise SpecParseError("builder must be mass_spring or lc", lineno)
            builder = tokens[1]
        elif key in _BUILDER_VECTORS:
            grids.close()
            vals = _floats(tokens[1:])
            if vals is None or not vals:
                raise SpecParseError(f"bad {key} vector", lineno)
            builder_args[key] = _finite(vals, key, lineno)
        elif key == "coupling":
            grids.close()
            if "q" not in scalars:
                raise SpecParseError("q must appear before coupling lines", lineno)
            e = _edge_key(tokens[1:3], lineno, scalars["q"])
            vals = _floats(tokens[3:])
            if vals is None or not vals:
                raise SpecParseError("coupling line needs edge values", lineno)
            builder_args["coupling"][e] = _finite(vals, "coupling values", lineno)
        elif key == "variant":
            grids.close()
            if len(tokens) != 2 or tokens[1] not in ("raw", "transformed"):
                raise SpecParseError("variant must be raw or transformed", lineno)
            builder_args["variant"] = tokens[1]
        else:
            row = _floats(tokens)
            if row is None:
                raise SpecParseError(f"unrecognized line {' '.join(tokens)!r}", lineno)
            grids.feed(row, lineno)

    if "q" not in scalars:
        raise SpecParseError("missing q")
    q = scalars["q"]
    time_domain = time_domain or CONTINUOUS

    if builder is not None:
        if grids.matrix("A") is not None or edge_headers:
            raise SpecParseError("builder blocks exclude explicit A / edge matrices")
        spec = _materialize_builder(builder, builder_args, q)
    else:
        A = grids.matrix("A")
        if A is None:
            raise SpecParseError("missing matrix A")
        n = scalars.get("n", A.shape[1])
        if A.shape != (n, n):
            raise SpecParseError(f"A has shape {A.shape}, expected ({n}, {n})", grids.lines["A"])
        cmap = {e: grids.matrix(("edge", e)) for e in edge_headers}
        for (i, j), C in cmap.items():
            if C.shape[1] != n:
                msg = f"edge {i + 1} {j + 1} has {C.shape[1]} columns, expected {n}"
                raise SpecParseError(msg, grids.lines[("edge", (i, j))])
        spec = ArraySpec(q=q, n=n, A=A, C=cmap, time_domain=time_domain)

    if builder is not None and time_domain == DISCRETE:
        raise SpecParseError("builder arrays are continuous-time")
    P = grids.matrix("P")
    if P is not None and P.shape != (spec.n, spec.n):
        msg = f"P has shape {P.shape}, expected ({spec.n}, {spec.n})"
        raise SpecParseError(msg, grids.lines["P"])
    return SpecDocument(
        spec=spec,
        P=P,
        alpha=scalars.get("alpha"),
        epsilon=scalars.get("epsilon"),
    )


def _materialize_builder(kind, args, q):
    coupling = args["coupling"]
    variant = args.get("variant", "transformed")
    try:
        if kind == "mass_spring":
            built = build_mass_spring(
                args["masses"], args["springs"], coupling, q
            )
        else:
            built = build_lc(
                args["capacitances"], args["inductances"], coupling, q
            )
    except KeyError as missing:
        raise SpecParseError(f"builder {kind} is missing {missing.args[0]}")
    return built.raw.spec if variant == "raw" else built.transformed.spec


def serialize_spec_document(doc: SpecDocument) -> str:
    spec = doc.spec
    out = [f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}"]
    if doc.alpha is not None:
        out.append(f"alpha {_fmt(doc.alpha)}")
    if doc.epsilon is not None:
        out.append(f"epsilon {_fmt(doc.epsilon)}")
    out.append("A")
    out.append(_fmt_matrix(spec.A))
    for (i, j) in sorted(spec.C):
        out.append(f"edge {i + 1} {j + 1}")
        out.append(_fmt_matrix(spec.C[(i, j)]))
    if doc.P is not None:
        out.append("P")
        out.append(_fmt_matrix(doc.P))
    return "\n".join(out) + "\n"


_GAINS_SCALARS = {
    "q": int,
    "n": int,
    "n1": int,
    "alpha": float,
    "epsilon": float,
    "eps_bar": float,
    "cert_eps": float,
    "cert_sigma": float,
    "cert_lambda2": float,
    "cert_delta": float,
}


def parse_gains_document(text: str) -> GainsDocument:
    scalars = {}
    recipe = None
    cond14 = None
    grids = _Grids()
    gain_headers = []

    for lineno, tokens in _lines(text):
        key = tokens[0]
        if key == "recipe" and len(tokens) == 2:
            grids.close()
            recipe = tokens[1]
        elif key == "cert_condition14" and len(tokens) == 2:
            grids.close()
            cond14 = tokens[1] == "true"
        elif key in _GAINS_SCALARS and len(tokens) == 2:
            grids.close()
            try:
                scalars[key] = _GAINS_SCALARS[key](tokens[1])
            except ValueError:
                raise SpecParseError(f"bad value for {key}: {tokens[1]!r}", lineno)
            if not key.startswith("cert_"):  # a certificate margin may be infinite
                _finite([scalars[key]], key, lineno)
        elif key == "P" and len(tokens) == 1:
            grids.open("P", lineno)
        elif key == "gain":
            if "q" not in scalars:
                raise SpecParseError("q must appear before the first gain", lineno)
            e = _edge_key(tokens[1:], lineno, scalars["q"])
            gain_headers.append(e)
            grids.open(("gain", e), lineno)
        else:
            row = _floats(tokens)
            if row is None:
                raise SpecParseError(f"unrecognized line {' '.join(tokens)!r}", lineno)
            grids.feed(row, lineno)

    if recipe is None:
        raise SpecParseError("missing recipe")
    for need in ("q", "n"):
        if need not in scalars:
            raise SpecParseError(f"missing {need}")
    gmap = {e: grids.matrix(("gain", e)) for e in gain_headers}
    metadata = {k: v for k, v in scalars.items() if k.startswith("cert_") or k == "n1"}
    if cond14 is not None:
        metadata["cert_condition14"] = cond14
    gain_set = GainSet(
        gains=gmap,
        recipe=recipe,
        alpha=scalars.get("alpha"),
        eps_bar=scalars.get("eps_bar"),
    )
    return GainsDocument(
        gain_set=gain_set,
        q=scalars["q"],
        n=scalars["n"],
        epsilon=scalars.get("epsilon"),
        P=grids.matrix("P"),
        metadata=metadata,
    )


def serialize_gains_document(
    gain_set: GainSet,
    q: int,
    n: int,
    epsilon: float | None = None,
    P: np.ndarray | None = None,
    metadata: dict | None = None,
) -> str:
    out = [f"recipe {gain_set.recipe}", f"q {q}", f"n {n}"]
    if gain_set.alpha is not None:
        out.append(f"alpha {_fmt(gain_set.alpha)}")
    if gain_set.eps_bar is not None and np.isfinite(gain_set.eps_bar):
        out.append(f"eps_bar {_fmt(gain_set.eps_bar)}")
    if epsilon is not None:
        out.append(f"epsilon {_fmt(epsilon)}")
    for k, v in sorted((metadata or {}).items()):
        if isinstance(v, bool):
            out.append(f"{k} {'true' if v else 'false'}")
        elif isinstance(v, int):
            out.append(f"{k} {v}")
        else:
            out.append(f"{k} {_fmt(v)}")
    if P is not None:
        out.append("P")
        out.append(_fmt_matrix(P))
    for (i, j) in sorted(gain_set.gains):
        out.append(f"gain {i + 1} {j + 1}")
        out.append(_fmt_matrix(gain_set.gains[(i, j)]))
    return "\n".join(out) + "\n"
