"""Plain-text documents for array specs and gain sets.

The format is line-oriented: ``key value`` scalars, matrix blocks headed by
``A``, ``P``, ``edge I J`` or ``gain I J`` followed by rows of numbers, and
``#`` comments.  Agent indices are 1-based in documents and 0-based in
memory.  Physical arrays can be stated declaratively, instead of by
matrices, with a ``builder`` line, its parameter vectors (``masses`` and
``springs``, or ``capacitances`` and ``inductances``), ``coupling I J``
lines and a ``variant`` (see the README).

One reader, ``_read``, reads both kinds by a grammar (_SPEC, _GAINS) that
gives each key's rule: a scalar's type, the words it may take, a matrix
block, a block per ordered pair, a builder vector or a coupling line.
Block, pair and coupling keys repeat, one line per ordered edge; any other
key appears once.  One pass over the lines records each block's rows; then
one numpy call converts the tokens of the document's distinct blocks
(numpy reads a token as float() does, bit for bit) and the row lengths and
isfinite are checked, so the first fault in document order is raised with
its line.  A block whose rows came before (the mirror C_ji of a symmetric
C_ij) gets a copy of that array.

Serialization emits the matrices with full round-trip precision, so parse
-> serialize -> parse is the identity on the in-memory spec.  Edge and gain
blocks are written in sorted pair order, each distinct one formatted once.
The bundled examples, builder demos included, are written here too.

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
from .builders import LC_DEMO, MASS_SPRING_DEMO, BuiltinExample, build_lc, build_mass_spring
from .errors import DimensionMismatch, NonPositiveParameter, SpecParseError
from .gains import GainSet


@dataclass(frozen=True)
class SpecDocument:
    spec: ArraySpec
    P: np.ndarray | None = None
    alpha: float | None = None


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


def _table_blocks(kind, t):
    """``kind I J`` and its rows for each block of an EdgeTable, in sorted pair order."""
    texts = _texts([t.groups[g][1][r] for g, r in t.where[t.order].tolist()])
    return [f"{kind} {i} {j}\n{text}" for (i, j), text in zip((t.pairs[t.order] + 1).tolist(), texts)]


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


def _scalar(kind, key, value, lineno):
    try:
        x = kind(value)
    except ValueError:
        raise SpecParseError(f"bad value for {key}: {value!r}", lineno)
    if not key.startswith("cert_") and not math.isfinite(x):  # a margin may be infinite
        raise SpecParseError(f"{key} must be finite", lineno)
    if key in ("q", "n") and x < 1:
        raise SpecParseError(f"{key} must be >= 1, got {x}", lineno)
    return x


def _block_name(key):
    """A block key as the document writes its header: A, P, edge I J, gain I J."""
    return key if isinstance(key, str) else f"{key[0]} {key[1][0] + 1} {key[1][1] + 1}"


# a grammar's statement rules, beside a scalar's type and a tuple of the two words a key takes
_WORD = "word"          # any one word
_BLOCK = "block"        # a matrix block: the key alone, then rows
_PAIR = "pair"          # a block per ordered pair: `KEY I J`, then rows
_VECTOR = "vector"      # a builder vector: the key, then numbers
_COUPLING = "coupling"  # `coupling I J` and the edge's values, once per pair
_REPEATS = (_BLOCK, _PAIR, _COUPLING)  # a block names its own duplicate


class _Blocks:
    """The matrix blocks of one document, read as described above, and the
    context of its statement loop: leaving it reads every block, so that a
    bad row before a fault the loop raises is raised in its place."""

    def __init__(self):
        self.arrays, self.lines = {}, {}  # key -> its array, key -> line of its header
        self.stated = {}  # key that appears once -> line of its statement
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

    def statements(self, text, grammar):
        """(line, tokens) of each line whose first token is a key of grammar, once per
        key whose rule does not repeat.  Other lines with tokens are rows of the
        open block, which closes before the next statement and at the end."""
        lines = self._lines = text.splitlines()
        if "#" in text:
            lines[:] = [line.partition("#")[0] for line in lines]
        heads, stated, end = {k[0] for k in grammar}, self.stated, 0  # a line starting otherwise is a row
        for k in [k for k, line in enumerate(lines) if line.lstrip()[:1] in heads]:
            if (tokens := lines[k].split())[0] not in grammar:
                continue
            self._close(end, k)
            end = k + 1
            if tokens[0] in stated:
                raise SpecParseError(f"duplicate {tokens[0]}", k + 1)
            if grammar[tokens[0]] not in _REPEATS:
                stated[tokens[0]] = k + 1
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


def _edge_key(tokens, lineno, q):
    """The 0-based pair of a `KEY I J` line's tokens: two indices, and nothing more."""
    try:
        i, j = map(int, tokens[1:])
    except ValueError:
        raise SpecParseError(f"{tokens[0]} header needs two integer indices", lineno)
    if not (1 <= i <= q and 1 <= j <= q) or i == j:
        raise SpecParseError(f"edge ({i}, {j}) invalid for q={q}", lineno)
    return (i - 1, j - 1)


def _read(text, grammar):
    """(values, blocks) of a document read by grammar, key -> rule.  values
    holds each once-key's value, each _PAIR key's pairs in document order
    and the coupling map.  A statement with the wrong number of tokens is
    an unrecognized line, but one whose key takes one of two words."""
    values, blocks = {key: [] for key, rule in grammar.items() if rule is _PAIR}, _Blocks()
    with blocks:
        for lineno, tokens in blocks.statements(text, grammar):
            key = tokens[0]
            rule = grammar[key]
            if rule is _PAIR:  # the statement a large document repeats
                if "q" not in values:
                    raise SpecParseError(f"q must appear before the first {key}", lineno)
                e = _edge_key(tokens, lineno, values["q"])
                blocks.open((key, e), lineno)
                values[key].append(e)
            elif isinstance(rule, tuple):
                if len(tokens) != 2 or tokens[1] not in rule:
                    raise SpecParseError(f"{key} must be {rule[0]} or {rule[1]}", lineno)
                values[key] = tokens[1]
            elif rule is _VECTOR:
                values[key] = _vector(tokens[1:], f"bad {key} vector", key, lineno)
            elif rule is _COUPLING:
                if "q" not in values:
                    raise SpecParseError("q must appear before coupling lines", lineno)
                e = _edge_key(tokens[:3], lineno, values["q"])
                if e in (coupling := values.setdefault(key, {})):
                    raise SpecParseError(f"duplicate coupling ({e[0] + 1}, {e[1] + 1})", lineno)
                coupling[e] = _vector(tokens[3:], "coupling line needs edge values",
                                      "coupling values", lineno)
            elif rule is _BLOCK and len(tokens) == 1:
                blocks.open(key, lineno)
            elif rule is _WORD and len(tokens) == 2:
                values[key] = tokens[1]
            elif rule in (int, float) and len(tokens) == 2:
                values[key] = _scalar(rule, key, tokens[1], lineno)
            else:
                raise SpecParseError(f"unrecognized line {' '.join(tokens)!r}", lineno)
    return values, blocks


# builder -> (its function, the vectors it takes before the coupling map and q)
_BUILDERS = {
    "mass_spring": (build_mass_spring, ("masses", "springs")),
    "lc": (build_lc, ("capacitances", "inductances")),
}
_SPEC = {
    "q": int, "n": int, "alpha": float,
    "time_domain": (CONTINUOUS, DISCRETE), "A": _BLOCK, "P": _BLOCK, "edge": _PAIR,
    "builder": tuple(_BUILDERS), "coupling": _COUPLING, "variant": ("raw", "transformed"),
    **{v: _VECTOR for _, vectors in _BUILDERS.values() for v in vectors},
}
_GAINS = {
    "recipe": _WORD, "q": int, "n": int, "n1": int, "alpha": float, "epsilon": float,
    "eps_bar": float, "cert_eps": float, "cert_sigma": float, "cert_lambda2": float,
    "cert_delta": float, "cert_condition14": _WORD, "P": _BLOCK, "gain": _PAIR,
}


def parse_spec_document(text: str) -> SpecDocument:
    values, blocks = _read(text, _SPEC)
    if "q" not in values:
        raise SpecParseError("missing q")
    time_domain = values.get("time_domain", CONTINUOUS)
    edge_headers = values["edge"]  # in document order, which is the order of spec.C

    if "builder" in values:
        if blocks.matrix("A") is not None or edge_headers:
            raise SpecParseError("builder blocks exclude explicit A / edge matrices")
        kind = values["builder"]
        build, vectors = _BUILDERS[kind]
        try:
            built = build(*(values[v] for v in vectors), values.get("coupling", {}), values["q"])
        except KeyError as missing:
            raise SpecParseError(f"builder {kind} is missing {missing.args[0]}", blocks.stated["builder"])
        except (DimensionMismatch, NonPositiveParameter) as e:
            raise SpecParseError(str(e), blocks.stated["builder"]) from e
        spec = built.raw.spec if values.get("variant") == "raw" else built.transformed.spec
    else:
        A = blocks.matrix("A")
        if A is None:
            raise SpecParseError("missing matrix A")
        n = values.get("n", A.shape[1])
        if A.shape != (n, n):
            raise SpecParseError(f"A has shape {A.shape}, expected ({n}, {n})", blocks.lines["A"])
        cmap = {e: blocks.matrix(("edge", e)) for e in edge_headers}
        for (i, j), C in cmap.items():
            if C.shape[1] != n:
                msg = f"edge {i + 1} {j + 1} has {C.shape[1]} columns, expected {n}"
                raise SpecParseError(msg, blocks.lines[("edge", (i, j))])
        spec = ArraySpec(q=values["q"], n=n, A=A, C=cmap, time_domain=time_domain)

    if time_domain == DISCRETE:
        if "builder" in values:
            raise SpecParseError("builder arrays are continuous-time")
        for key, line in (("alpha", blocks.stated.get("alpha")), ("P", blocks.lines.get("P"))):
            if line:  # theorem1's inputs, which nothing reads in discrete time
                raise SpecParseError(f"{key} applies to continuous time", line)
    P = blocks.matrix("P")
    if P is not None and P.shape != (spec.n, spec.n):
        msg = f"P has shape {P.shape}, expected ({spec.n}, {spec.n})"
        raise SpecParseError(msg, blocks.lines["P"])
    return SpecDocument(spec, P, values.get("alpha"))


def serialize_spec_document(doc: SpecDocument) -> str:
    spec = doc.spec
    out = [f"q {spec.q}", f"n {spec.n}", f"time_domain {spec.time_domain}"]
    if doc.alpha is not None:
        out.append(f"alpha {_fmt(doc.alpha)}")
    out += ["A", _fmt_matrix(spec.A), *_table_blocks("edge", spec.table)]
    if doc.P is not None:
        out += ["P", _fmt_matrix(doc.P)]
    return "\n".join(out) + "\n"


def parse_gains_document(text: str) -> GainsDocument:
    values, blocks = _read(text, _GAINS)
    for need in ("recipe", "q", "n"):
        if need not in values:
            raise SpecParseError(f"missing {need}")
    metadata = {k: v == "true" if k == "cert_condition14" else v
                for k, v in values.items() if k.startswith("cert_") or k == "n1"}
    gains = {e: blocks.matrix(("gain", e)) for e in values["gain"]}
    gain_set = GainSet.of(gains, values["recipe"], alpha=values.get("alpha"), eps_bar=values.get("eps_bar"))
    return GainsDocument(gain_set, values["q"], values["n"], values.get("epsilon"), blocks.matrix("P"), metadata)


def serialize_gains_document(gain_set: GainSet, q: int, n: int, epsilon: float | None = None,
                             P: np.ndarray | None = None, metadata: dict | None = None) -> str:
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
    out += _table_blocks("gain", gain_set.table)
    return "\n".join(out) + "\n"


# the bundled builder demos, written as builder statements: name -> (builder, its parameters)
_BUILDER_EXAMPLES = {"mass_spring_demo": ("mass_spring", MASS_SPRING_DEMO), "lc_demo": ("lc", LC_DEMO)}


def serialize_example(ex: BuiltinExample) -> str:
    """The document of a bundled example, headed by its description as a
    comment: a builder demo as its builder statements, any other as matrices."""
    if ex.name not in _BUILDER_EXAMPLES:
        body = serialize_spec_document(SpecDocument(spec=ex.spec, P=ex.P))
        return f"# {ex.description}\n{body}" if ex.description else body
    kind, params = _BUILDER_EXAMPLES[ex.name]
    out = [f"# {ex.description}", f"q {params['q']}", f"time_domain {CONTINUOUS}", f"builder {kind}"]
    for key, value in params.items():
        if isinstance(value, dict):  # edge -> coupling values
            out += [f"coupling {i + 1} {j + 1} " + " ".join(map(_fmt, vals))
                    for (i, j), vals in sorted(value.items())]
        elif key != "q":
            out.append(f"{key} " + " ".join(map(_fmt, value)))
    return "\n".join(out + ["variant transformed"]) + "\n"
