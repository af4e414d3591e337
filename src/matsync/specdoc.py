"""Plain-text documents for array specs and gain sets.

The format is line-oriented: ``key value`` scalars, matrix blocks headed by
``A``, ``P``, ``edge I J`` or ``gain I J`` followed by rows of numbers, and
``#`` comments.  Agent indices are 1-based in documents and 0-based in
memory.  Physical arrays can be stated declaratively, instead of by
matrices, with a ``builder`` line, its parameter vectors (``masses`` and
``springs``, or ``capacitances`` and ``inductances``), ``coupling I J``
lines and a ``variant`` (see the README).

Each key but ``edge``, ``gain`` and ``coupling`` may appear once, and each
ordered edge gets one ``edge``, ``gain`` or ``coupling`` line.  One pass
over the lines records each block's rows; then one numpy call converts the
tokens of the document's distinct blocks (numpy reads a token as float()
does, bit for bit) and the row lengths and isfinite are checked, so the
first fault in document order is raised with its line.  A block whose rows
came before (the mirror C_ji of a symmetric C_ij) gets a copy of that array.

Serialization emits the matrices with full round-trip precision, so parse
-> serialize -> parse is the identity on the in-memory spec.  Each distinct
block is formatted once per document.

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


def _texts(mats):
    """Each matrix's rows as text; each distinct one, bit for bit, is
    formatted once (tolist() gives Python floats, whose repr is _fmt's)."""
    first = {}
    slot = [first.setdefault((M.shape, M.tobytes()), k) for k, M in enumerate(mats)]
    text = {k: "\n".join(" ".join(map(repr, row)) for row in mats[k].tolist()) for k in first.values()}
    return [text[k] for k in slot]


def _fmt_matrix(M):
    return _texts([np.atleast_2d(np.asarray(M, dtype=float))])[0]


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
    """The matrix blocks of one document, read as described above, and the
    context of its statement loop: leaving it reads every block, so that a
    bad row before a fault the loop raises is raised in its place."""

    def __init__(self):
        self.arrays, self.lines = {}, {}  # key -> its array, key -> line of its header
        self._spans, self._open, self._lines = [], None, []  # (key, a, b): lines a..b-1 hold its rows

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind in (None, SpecParseError):
            self._read()

    def open(self, key, lineno):
        if key in self.lines:
            raise SpecParseError(f"duplicate matrix block {_block_name(key)}", lineno)
        self.lines[key], self._open = lineno, key

    def _close(self, a, b):
        """Lines a..b-1 are rows of the open block, which closes."""
        if self._open is not None:
            self._spans.append((self._open, a, b))
        elif rows := [k + 1 for k in range(a, b) if self._lines[k].strip()]:
            _row(self._lines[rows[0] - 1], rows[0])
            raise SpecParseError("numeric row outside a matrix block", rows[0])
        self._open = None

    def statements(self, text, keys):
        """(line, tokens) of each line whose first token is in keys, once per
        key outside _REPEATABLE.  Other lines with tokens are rows of the open
        block, which closes before the next statement and at the end."""
        lines = self._lines = text.splitlines()
        if "#" in text:
            lines[:] = [line.partition("#")[0] for line in lines]
        heads, seen, end = {k[0] for k in keys}, set(), 0  # a line starting otherwise is a row
        for k in [k for k, line in enumerate(lines) if line.lstrip()[:1] in heads]:
            if (tokens := lines[k].split())[0] not in keys:
                continue
            self._close(end, k)
            end = k + 1
            if tokens[0] in seen:
                raise SpecParseError(f"duplicate {tokens[0]}", k + 1)
            if tokens[0] not in _REPEATABLE:
                seen.add(tokens[0])
            yield k + 1, tokens
        self._close(end, len(lines))

    def _read(self):
        """Each block's array, from one float conversion over the distinct
        blocks' tokens; a block with the lines of an earlier one gets a copy."""
        lines, index, keys, distinct, tokens, ragged = self._lines, {}, [], [], [], False
        for key, a, b in self._spans:
            if (d := index.setdefault(tuple(lines[a:b]), len(index))) == len(distinct):
                lens = [len(r) for r in map(str.split, lines[a:b]) if r]
                distinct.append((key, a, b, len(lens), lens[0] if lens else 0))
                ragged |= lens.count(distinct[d][4]) < len(lens)
                tokens += " ".join(lines[a:b]).split()
            keys.append((key, d))
        vals = None if ragged else _numbers(tokens)
        if vals is None or not np.isfinite(vals).all():  # raise at the first bad row
            for key, a, b, _, width in distinct:
                for k in (k for k in range(a, b) if lines[k].strip()):
                    if not np.isfinite(row := _row(lines[k], k + 1)).all():
                        raise SpecParseError("numbers in a matrix block must be finite", k + 1)
                    if len(row) != width:
                        msg = f"ragged matrix block {_block_name(key)}: row of length {len(row)}"
                        raise SpecParseError(f"{msg}, expected {width}", k + 1)
        ends = np.cumsum([r * w for *_, r, w in distinct]).tolist()
        arrays = [vals[e - r * w:e].reshape(r, w) for e, (*_, r, w) in zip(ends, distinct)]
        for key, d in keys:
            if distinct[d][3]:  # a block without rows gets no array
                self.arrays[key] = arrays[d] if key is distinct[d][0] else arrays[d].copy()

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
    """The 0-based pair of a `KEY I J` line's tokens: two indices, and nothing more."""
    try:
        i, j = map(int, tokens[1:])
    except ValueError:
        raise SpecParseError(f"{tokens[0]} header needs two integer indices", lineno)
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

    with blocks:
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
                e = _edge_key(tokens, lineno, scalars["q"])
                blocks.open(("edge", e), lineno)
                edge_headers.append(e)
            elif key == "builder":
                if len(tokens) != 2 or tokens[1] not in ("mass_spring", "lc"):
                    raise SpecParseError("builder must be mass_spring or lc", lineno)
                builder, builder_line = tokens[1], lineno
            elif key in _BUILDER_VECTORS:
                builder_args[key] = _vector(tokens[1:], f"bad {key} vector", key, lineno)
            elif key == "coupling":
                if "q" not in scalars:
                    raise SpecParseError("q must appear before coupling lines", lineno)
                e = _edge_key(tokens[:3], lineno, scalars["q"])
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
    t = spec.table
    out = [f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}"]
    if doc.alpha is not None:
        out.append(f"alpha {_fmt(doc.alpha)}")
    if doc.epsilon is not None:
        out.append(f"epsilon {_fmt(doc.epsilon)}")
    out += ["A", _fmt_matrix(spec.A)]
    texts = _texts(list(spec.C.values()))
    for k, (i, j) in zip(t.order.tolist(), (t.pairs[t.order] + 1).tolist()):
        out += [f"edge {i} {j}", texts[k]]
    if doc.P is not None:
        out += ["P", _fmt_matrix(doc.P)]
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

    with blocks:
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
                e = _edge_key(tokens, lineno, scalars["q"])
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
        out += ["P", _fmt_matrix(P)]
    pairs = sorted(gain_set.gains)
    texts = _texts([np.atleast_2d(np.asarray(gain_set.gains[e], dtype=float)) for e in pairs])
    for (i, j), text in zip(pairs, texts):
        out += [f"gain {i + 1} {j + 1}", text]
    return "\n".join(out) + "\n"
