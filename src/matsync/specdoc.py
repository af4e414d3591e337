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

Each key but ``edge``, ``gain`` and ``coupling`` may appear once, and each
ordered edge gets one ``edge``, ``gain`` or ``coupling`` line.  A block's
rows are kept as text until the next statement closes the block.
Closing converts the joined rows with one numpy call (numpy reads a token
as float() does, bit for bit) and checks the row lengths and one isfinite,
so faults are raised in document order; only a block that fails is read
row by row, to name its first bad row.  A block whose text came before in
the document (the mirror C_ji of a symmetric C_ij) gets a copy of that
array.

Serialization always emits the materialized matrices with full round-trip
precision, so parse -> serialize -> parse is the identity on the in-memory
spec.  Each distinct block is formatted once per document.

A fault of a document, builder parameters the builders refuse included
(named at the ``builder`` line), is a SpecParseError: the CLI prints it as
``error: ...`` and exits 1, as for gains that do not fit their spec.
``hypothesis failed: ...`` and exit 2 are never about a document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .array_model import CONTINUOUS, DISCRETE, ArraySpec
from .builders import build_lc, build_mass_spring
from .errors import DimensionMismatch, NonPositiveParameter, SpecParseError
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


def _fmt_matrix(M, done):
    """M's rows as text; done holds the blocks of the document formatted so
    far by (shape, bytes), so a mirrored block is formatted once."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    key = (M.shape, M.tobytes())
    if key not in done:  # tolist() gives Python floats, whose repr is _fmt's text
        done[key] = "\n".join(" ".join(map(repr, row)) for row in M.tolist())
    return done[key]


def _numbers(tokens):
    """The tokens as a float array, None when one is not a number."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        return None


def _row(text, lineno):
    """The numbers of a row, or SpecParseError at lineno when it holds others."""
    vals = _numbers(text.split())
    if vals is None:
        raise SpecParseError(f"unrecognized line {' '.join(text.split())!r}", lineno)
    return vals


def _vector(tokens, bad, what, lineno):
    """The numbers of a builder line; SpecParseError bad when there are none."""
    vals = _numbers(tokens)
    if vals is None or not vals.size:
        raise SpecParseError(bad, lineno)
    if not np.isfinite(vals).all():
        raise SpecParseError(f"{what} must be finite", lineno)
    return vals


def _scalar(kinds, key, value, lineno):
    try:
        x = kinds[key](value)
    except ValueError:
        raise SpecParseError(f"bad value for {key}: {value!r}", lineno)
    if not key.startswith("cert_") and not math.isfinite(x):  # a margin may be infinite
        raise SpecParseError(f"{key} must be finite", lineno)
    if key in ("q", "n") and x < 1:
        raise SpecParseError(f"{key} must be >= 1, got {x}", lineno)
    return x


def _block_name(key):
    """A block key as the document writes its header: A, P, edge I J, gain I J."""
    if isinstance(key, str):
        return key
    kind, (i, j) = key
    return f"{kind} {i + 1} {j + 1}"


# keys that repeat: one line per edge, or a block that names its own duplicate
_REPEATABLE = {"A", "P", "edge", "gain", "coupling"}


class _Blocks:
    """The matrix blocks of one document, read a block at a time (see above)."""

    def __init__(self):
        self.arrays = {}
        self.lines = {}  # key -> line of its header
        self._read = {}  # joined row text -> its array
        self._open = None
        self._rows = []  # (line, text) of each row of the open block

    def open(self, key, lineno):
        if key in self.lines:
            raise SpecParseError(f"duplicate matrix block {_block_name(key)}", lineno)
        self.lines[key] = lineno
        self._open = key

    def close(self):
        key, pending = self._open, self._rows
        self._open, self._rows = None, []
        if not pending:
            return
        linenos, rows = zip(*pending)
        text = "\n".join(rows)
        if text in self._read:
            self.arrays[key] = self._read[text].copy()
            return
        counts = list(map(len, map(str.split, rows)))
        M, width = _numbers(text.split()), counts[0]
        if M is None or counts.count(width) < len(counts) or not np.isfinite(M).all():
            for lineno, row, count in zip(linenos, rows, counts):  # the first bad row
                if not np.isfinite(_row(row, lineno)).all():
                    raise SpecParseError("numbers in a matrix block must be finite", lineno)
                if count != width:
                    msg = f"ragged matrix block {_block_name(key)}: row of length {count}"
                    raise SpecParseError(f"{msg}, expected {width}", lineno)
        self.arrays[key] = self._read[text] = M.reshape(len(rows), width)

    def statements(self, text, keys):
        """(line, tokens) of each line whose first token is in keys, once per
        key outside _REPEATABLE.  Other lines with tokens are rows of the open
        block, which closes before the next statement and at the end."""
        heads = {k[0] for k in keys}  # a line starting otherwise is a row
        seen = set()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                line = line.split("#", 1)[0]
            head = line.lstrip()[:1]
            if head in heads and (tokens := line.split())[0] in keys:
                self.close()
                if tokens[0] in seen:
                    raise SpecParseError(f"duplicate {tokens[0]}", lineno)
                if tokens[0] not in _REPEATABLE:
                    seen.add(tokens[0])
                yield lineno, tokens
            elif head:
                if self._open is None:
                    _row(line, lineno)
                    raise SpecParseError("numeric row outside a matrix block", lineno)
                self._rows.append((lineno, line))
        self.close()

    def matrix(self, key):
        """The block as an array, None when absent; an empty block is an error."""
        if key in self.lines and key not in self.arrays:
            raise SpecParseError("matrix block has no rows", self.lines[key])
        return self.arrays.get(key)


_SPEC_SCALARS = {"q": int, "n": int, "alpha": float, "epsilon": float}
_BUILDER_VECTORS = ("masses", "springs", "capacitances", "inductances")
_SPEC_KEYS = {*_SPEC_SCALARS, *_BUILDER_VECTORS, *_REPEATABLE, "time_domain", "builder",
              "variant"}


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
    builder = builder_line = None
    builder_args = {"coupling": {}}
    blocks = _Blocks()
    edge_headers = []  # in document order, which is the order of spec.C

    for lineno, tokens in blocks.statements(text, _SPEC_KEYS):
        key = tokens[0]
        if key in _SPEC_SCALARS and len(tokens) == 2:
            scalars[key] = _scalar(_SPEC_SCALARS, key, tokens[1], lineno)
        elif key == "time_domain":
            if len(tokens) != 2 or tokens[1] not in (CONTINUOUS, DISCRETE):
                raise SpecParseError(
                    f"time_domain must be {CONTINUOUS} or {DISCRETE}", lineno
                )
            time_domain = tokens[1]
        elif key in ("A", "P") and len(tokens) == 1:
            blocks.open(key, lineno)
        elif key == "edge":
            if "q" not in scalars:
                raise SpecParseError("q must appear before the first edge", lineno)
            e = _edge_key(tokens[1:], lineno, scalars["q"])
            if ("edge", e) in blocks.lines:
                raise SpecParseError(
                    f"duplicate edge ({e[0] + 1}, {e[1] + 1})", lineno
                )
            edge_headers.append(e)
            blocks.open(("edge", e), lineno)
        elif key == "builder":
            if len(tokens) != 2 or tokens[1] not in ("mass_spring", "lc"):
                raise SpecParseError("builder must be mass_spring or lc", lineno)
            builder, builder_line = tokens[1], lineno
        elif key in _BUILDER_VECTORS:
            builder_args[key] = _vector(tokens[1:], f"bad {key} vector", key, lineno)
        elif key == "coupling":
            if "q" not in scalars:
                raise SpecParseError("q must appear before coupling lines", lineno)
            e = _edge_key(tokens[1:3], lineno, scalars["q"])
            if e in builder_args["coupling"]:
                raise SpecParseError(f"duplicate coupling ({e[0] + 1}, {e[1] + 1})", lineno)
            builder_args["coupling"][e] = _vector(
                tokens[3:], "coupling line needs edge values", "coupling values", lineno
            )
        elif key == "variant":
            if len(tokens) != 2 or tokens[1] not in ("raw", "transformed"):
                raise SpecParseError("variant must be raw or transformed", lineno)
            builder_args["variant"] = tokens[1]
        else:
            raise SpecParseError(f"unrecognized line {' '.join(tokens)!r}", lineno)

    if "q" not in scalars:
        raise SpecParseError("missing q")
    q = scalars["q"]
    time_domain = time_domain or CONTINUOUS

    if builder is not None:
        if blocks.matrix("A") is not None or edge_headers:
            raise SpecParseError("builder blocks exclude explicit A / edge matrices")
        spec = _materialize_builder(builder, builder_args, q, builder_line)
    else:
        A = blocks.matrix("A")
        if A is None:
            raise SpecParseError("missing matrix A")
        n = scalars.get("n", A.shape[1])
        if A.shape != (n, n):
            raise SpecParseError(f"A has shape {A.shape}, expected ({n}, {n})", blocks.lines["A"])
        cmap = {e: blocks.matrix(("edge", e)) for e in edge_headers}
        for (i, j), C in cmap.items():
            if C.shape[1] != n:
                msg = f"edge {i + 1} {j + 1} has {C.shape[1]} columns, expected {n}"
                raise SpecParseError(msg, blocks.lines[("edge", (i, j))])
        spec = ArraySpec(q=q, n=n, A=A, C=cmap, time_domain=time_domain)

    if builder is not None and time_domain == DISCRETE:
        raise SpecParseError("builder arrays are continuous-time")
    P = blocks.matrix("P")
    if P is not None and P.shape != (spec.n, spec.n):
        msg = f"P has shape {P.shape}, expected ({spec.n}, {spec.n})"
        raise SpecParseError(msg, blocks.lines["P"])
    return SpecDocument(
        spec=spec,
        P=P,
        alpha=scalars.get("alpha"),
        epsilon=scalars.get("epsilon"),
    )


def _materialize_builder(kind, args, q, lineno):
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
        raise SpecParseError(f"builder {kind} is missing {missing.args[0]}", lineno)
    except (DimensionMismatch, NonPositiveParameter) as e:
        raise SpecParseError(str(e), lineno) from e
    return built.raw.spec if variant == "raw" else built.transformed.spec


def serialize_spec_document(doc: SpecDocument) -> str:
    spec = doc.spec
    done = {}
    out = [f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}"]
    if doc.alpha is not None:
        out.append(f"alpha {_fmt(doc.alpha)}")
    if doc.epsilon is not None:
        out.append(f"epsilon {_fmt(doc.epsilon)}")
    out.append("A")
    out.append(_fmt_matrix(spec.A, done))
    for (i, j) in sorted(spec.C):
        out.append(f"edge {i + 1} {j + 1}")
        out.append(_fmt_matrix(spec.C[(i, j)], done))
    if doc.P is not None:
        out.append("P")
        out.append(_fmt_matrix(doc.P, done))
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
_GAINS_KEYS = {*_GAINS_SCALARS, "recipe", "cert_condition14", "P", "gain"}


def parse_gains_document(text: str) -> GainsDocument:
    scalars = {}
    recipe = None
    cond14 = None
    blocks = _Blocks()
    gain_headers = []

    for lineno, tokens in blocks.statements(text, _GAINS_KEYS):
        key = tokens[0]
        if key == "recipe" and len(tokens) == 2:
            recipe = tokens[1]
        elif key == "cert_condition14" and len(tokens) == 2:
            cond14 = tokens[1] == "true"
        elif key in _GAINS_SCALARS and len(tokens) == 2:
            scalars[key] = _scalar(_GAINS_SCALARS, key, tokens[1], lineno)
        elif key == "P" and len(tokens) == 1:
            blocks.open("P", lineno)
        elif key == "gain":
            if "q" not in scalars:
                raise SpecParseError("q must appear before the first gain", lineno)
            e = _edge_key(tokens[1:], lineno, scalars["q"])
            gain_headers.append(e)
            blocks.open(("gain", e), lineno)
        else:
            raise SpecParseError(f"unrecognized line {' '.join(tokens)!r}", lineno)

    if recipe is None:
        raise SpecParseError("missing recipe")
    for need in ("q", "n"):
        if need not in scalars:
            raise SpecParseError(f"missing {need}")
    gmap = {e: blocks.matrix(("gain", e)) for e in gain_headers}
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
        P=blocks.matrix("P"),
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
    done = {}
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
        out.append(_fmt_matrix(P, done))
    for (i, j) in sorted(gain_set.gains):
        out.append(f"gain {i + 1} {j + 1}")
        out.append(_fmt_matrix(gain_set.gains[(i, j)], done))
    return "\n".join(out) + "\n"
