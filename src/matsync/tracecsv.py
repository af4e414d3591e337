"""The CSV trace of ``simulate`` as ASCII bytes, each cell exactly '%.16e' % x:
an optional '-', 17 significant digits and e+dd, or e+ddd when the decimal
exponent p needs three digits.  float() of a cell is the same double, bit for bit.
"""

import functools
import math

import numpy as np

# cells per chunk of a trace; no array of a chunk takes more than 28 bytes a
# cell (a record of seven uint32 words), so each stays under glibc's 128 KiB
# mmap threshold and comes from the heap instead of freshly mapped pages
CSV_CHUNK_CELLS = 4096
FREXP_MIN, FREXP_MAX = -1073, 1024  # frexp exponents of finite nonzero doubles
NEXP = FREXP_MAX - FREXP_MIN + 1
NARROW = (-327, 329)  # the frexp exponents whose p0 and p0 + 1 both lie in (-100, 100)
SPLIT_MASK = -(1 << 27)  # as int64, clears the low 27 of a double's 52 fraction bits
UNSURE = 0.5 - 2.0**-40  # a low part this far from an integer is too close to a tie


def _split(f):
    """(high, low), f = high + low exactly for f in [0.5, 1): high keeps at
    most 26 significant bits, low < 2^-26 at most 27."""
    high = (f.view(np.int64) & SPLIT_MASK).view(np.float64)
    return high, f - high


def _words(*columns):
    """One uint32 word per row of four byte columns (scalars broadcast)."""
    return np.stack(np.broadcast_arrays(*columns), axis=1).astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _format_tables():
    """(digits4, p0, scales, tens, lead, ddde, exp2, exp3), built on the first
    trace written, never at import.

    Column e - FREXP_MIN of p0 and tens belongs to frexp exponent e: a finite
    |x| = f 2^e, 0.5 <= f < 1, has decimal exponent p = p0 or p0 + 1, where
    p0 = floor(log10 2^(e-1)), and tens is the least double >= 10^(p0+1).
    Column (p - p0) NEXP + e - FREXP_MIN of scales, exp2 and exp3 belongs to
    e and p.  scales holds hi, hi_high, hi_low, lo: 2^e 10^(16-p) as the
    double-double hi + lo, and hi's Veltkamp split into two halves of at most
    26 significant bits.  The rest are record words, as bytes: digits4[v]
    the four digits of v < 10^4, ddde[v] the three of v < 10^3 and 'e',
    lead[100 s + v] the sign ('-' if s, else NUL), v's first digit, '.' and
    its second (v < 100), exp2 and exp3 p as sign, tens, units, ',' and as
    sign, hundreds (NUL if |p| < 100), tens, units.
    """
    zero = ord("0")
    v = np.arange(10**4)
    digits4 = _words(*(v[:, None] // [1000, 100, 10, 1] % 10 + zero).T)
    ddde = _words(*(v[:1000, None] // [100, 10, 1] % 10 + zero).T, ord("e"))
    v = v[:200]
    lead = _words(np.where(v < 100, 0, ord("-")), v // 10 % 10 + zero, ord("."), v % 10 + zero)
    exps = np.arange(FREXP_MIN, FREXP_MAX + 1)
    # exact: no nonzero (e - 1) log10(2) in this range lies within 1e-4 of an
    # integer (tests check p0 in integer arithmetic)
    p0 = np.floor((exps - 1) * np.log10(2.0)).astype(np.int64)
    p = np.concatenate((p0, p0 + 1))
    sign, a = np.where(p < 0, ord("-"), ord("+")), np.abs(p)
    tens, units = a // 10 % 10 + zero, a % 10 + zero
    exp2 = _words(sign, tens, units, ord(","))
    exp3 = _words(sign, np.where(a < 100, 0, a // 100 + zero), tens, units)
    hi, lo = [], []
    for e, k in zip(np.tile(exps, 2).tolist(), (16 - p).tolist()):
        num, den = 10 ** max(k, 0) << max(e, 0), 10 ** max(-k, 0) << max(-e, 0)  # 2^e 10^k
        a, b = (num / den).as_integer_ratio()  # int / int rounds correctly
        hi.append(num / den)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = hi * 134217729.0  # 2^27 + 1
    hi_high = c - (c - hi)
    scales = (hi, hi_high, hi - hi_high, np.array(lo))
    tens = []
    for p in (p0 + 1).tolist():
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        a, b = (num / den).as_integer_ratio()
        tens.append(num / den if a * den >= num * b else math.nextafter(num / den, math.inf))
    return digits4, p0, scales, np.array(tens), lead, ddde, exp2, exp3


def _round_scaled(f, column):
    """(N, unsure) for cells |x| = f 2^e: N = round(|x| 10^(16-p)) as int64.

    `column` is (p - p0) NEXP + e - FREXP_MIN.  Dekker's two-product gives
    f * hi exactly as ph + pl, and ph >= 2^53 is an integer, so N = ph +
    rint(pl + f * lo).  That low part is off by less than 2^-46, so a cell
    whose low part lies within 2^-40 of a half is `unsure`: its rounding is
    too close to call this way.
    """
    hi, hi_high, hi_low, lo = (s.take(column) for s in _format_tables()[2])
    f_high, f_low = _split(f)
    ph = np.multiply(f, hi, out=hi)
    # ((f_high hi_high - ph) + f_high hi_low + f_low hi_high) + f_low hi_low
    low = f_high * hi_high
    low -= ph
    low += np.multiply(f_high, hi_low, out=f_high)
    low += np.multiply(f_low, hi_high, out=hi_high)
    low += np.multiply(f_low, hi_low, out=hi_low)
    low += np.multiply(f, lo, out=lo)
    r = np.rint(low, out=f_low)
    unsure = np.abs(np.subtract(low, r, out=low), out=low) > UNSURE
    n = ph.astype(np.int64)
    n += r.astype(np.int64)
    return n, unsure


def format_rows(block):
    """The rows of a 2-D float block as CSV lines, in ASCII bytes.

    Each cell is a record of uint32 words, each one take from a table of
    _format_tables: [s d . D1] [D2-5] [D6-9] [D10-13] [D14-16 e] [+ t u ,],
    d D1-D16 the digits of N (_round_scaled) and s '-' or NUL; if some frexp
    exponent is not NARROW, [+ h t u] [0 0 0 ,] in place of the last, h NUL
    when |p| < 100.  Dropping the NULs leaves the text.  Cells that
    _round_scaled cannot decide, exact ties among them, take N and p from
    Python's '%.16e'.
    """
    return _records(block).tobytes().replace(b"\0", b"")  # after _records frees its arrays


def _records(block):
    x = block.ravel()
    a = np.abs(x)
    if not a.max(initial=0.0) < math.inf:  # false for inf and nan
        raise ValueError("a trace cell is not finite")
    digits4, p0, _, tens, lead, ddde, exp2, exp3 = _format_tables()
    f, e = np.frexp(a)
    wide = e.min() < NARROW[0] or e.max() > NARROW[1]
    column = np.subtract(e, FREXP_MIN, dtype=np.intp)
    column += (a >= tens.take(column)) * NEXP  # exactly |x| >= 10^(p0+1), so p = p0 + 1
    del a, e  # a lower peak per chunk: glibc then keeps the heap for the next chunk
    n, unsure = _round_scaled(f, column)
    again = np.flatnonzero(n >= 10**17)  # |x| < 10^(p0+1) rounds up to it
    if again.size:
        column[again] += NEXP
        n[again], unsure_again = _round_scaled(f[again], column[again])
        unsure[again] |= unsure_again  # an unsure first round may have chosen p wrongly
    column[n == 0] = 1 - FREXP_MIN  # p = 0, as for 1 <= |x| < 2
    for i in np.flatnonzero(unsure).tolist():
        digits, exponent = ("%.16e" % abs(x[i])).split("e")
        n[i] = int(digits.replace(".", ""))
        column[i] %= NEXP
        column[i] += (int(exponent) - p0[column[i]]) * NEXP
    words = np.empty((len(x), 7 if wide else 6), dtype=np.uint32)
    words[:, 5] = (exp3 if wide else exp2).take(column)
    top = n // 10**15  # N = top 10^15 + high 10^7 + low
    n -= top * 10**15
    top += (x.view(np.int64) >> 63) & 100  # 100 if x < 0
    words[:, 0] = lead.take(top)
    high = np.floor_divide(n, 10**7, out=top)
    n -= high * 10**7
    div = n // 1000
    words[:, 3] = digits4.take(div)
    n -= div * 1000
    words[:, 4] = ddde.take(n)
    np.floor_divide(high, 10**4, out=div)
    words[:, 1] = digits4.take(div)
    high -= div * 10**4
    words[:, 2] = digits4.take(high)
    if wide:
        words[:, 6] = np.frombuffer(b"\0\0\0,", np.uint32)
    words.view(np.uint8)[block.shape[1] - 1::block.shape[1], -1] = ord("\n")
    return words


def trace_csv(trace, verdict):
    """The trace as CSV bytes in chunks of about CSV_CHUNK_CELLS cells: every
    kept row, each cell as format_rows writes it."""
    qn = trace.states.shape[1]
    yield ("t," + ",".join(f"x_{k + 1}" for k in range(qn)) + ",sync_error,disagreement\n").encode()
    step = max(1, CSV_CHUNK_CELLS // (qn + 3))
    for a in range(0, len(trace.times), step):
        yield format_rows(np.column_stack((
            trace.times[a:a + step], trace.states[a:a + step],
            trace.sync_error[a:a + step], trace.disagreement[a:a + step],
        )))
    yield f"# verdict {verdict}\n".encode()
