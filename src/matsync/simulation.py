"""Closed-loop assembly, fixed-step simulation, and the coupling sweep.

Trajectories are integrated with the classical 4th-order Runge-Kutta
method at a fixed step.  For the linear closed loop the RK4 update is the
degree-4 Taylor polynomial of exp(h Psi), in Horner's form x <- x + hPsi(x +
(hPsi/2)(x + (hPsi/3)(x + (hPsi/4) x))).  simulate_ct applies it by one of
two products per run: the dense path forms the step matrix R once
(rk4_step_matrix) and steps x <- R x; the stage path forms no R and runs
the four stages on each state, each one sparse product with Psi.  The two
are equal in exact arithmetic only; the stage path's traces stay within
TRACE_RTOL ||x_row|| of R's (tested).

closed_loop takes every gains source as an EdgeTable, forms W_ij = G_ij C_ij
one group at a time, as rho_sweep does, and keeps Psi as the blocks of
mwl.laplacian_blocks: one n x n block per agent and one per edge, n^2 (q +
E) entries for the E pairs of the spec's edge table.  Its dense qn x qn
array is made on first read, by the dense path and simulate_dt only.

A dense run steps by products of a power table [R; R^2; ...; R^B], stacked
once per run with B = max(1, POWER_TABLE_CELLS // qn^2), so B depends on the
state size alone: each product of the table with the last state of the
product before gives the next B states.  They match one product per step
to rounding, not bit for bit, while qn <= 181; from qn = 182 on B = 1.  The
products are made in blocks of up to POWER_TABLE_CELLS // (B qn), each
written into one buffer that the run reuses.  The divergence cap is then
tested on every state of the block, so the first state past it is found
exactly, and the kept rows are copied out: the bookkeeping runs once per
block, not once per state.

simulate_ct takes the stage path, one state per product, when four stages,
each STAGE_CALL_COST for its call and copy plus STAGE_FMA_COST per entry,
cost less than the (qn)^2 multiply-adds of R x: pattern and sizes decide,
never the horizon.  At n = 4, chains, rings and trees take the stages from
q = 83 on; complete graphs, small arrays and the bundled examples step R.
The stage path builds Psi's CSR from the stored blocks in O(nnz), bit-equal
to csr_array(Psi), and forms no qn x qn array.  Each stage is one call of
scipy's private scipy.sparse._sparsetools.csr_matvec, the kernel psi @ x
calls, which adds A x into a buffer that already holds x: no allocation per
step, and ~3.3 us a call at q = 100 against ~6 us for psi @ x.  A scipy
release that changes the kernel fails
test_private_csr_matvec_adds_into_its_output by name; CI pins scipy 1.17.1.

The trace metrics take the kept rows in blocks of about METRIC_BLOCK_CELLS
floats, each copied agent-major to shape (q, n, rows) so that every
operation runs along the contiguous rows axis.  sync_error keeps the largest
squared pair distance and takes one square root at the end; the squares are
summed over n in the order np.linalg.norm sums them for n < 8 (numpy sums
8 or more terms pairwise), so it equals the row-wise pairwise norms bit for
bit.  From PRUNE_MIN_AGENTS agents on, a block first bounds its pair search.
With rad_i = ||x_i - c|| about the block centroid c, the agent of largest
radius is an anchor, and its squared distances to all agents are true pair
values, a lower bound `out` per row.  Since ||x_i - x_j|| <= rad_i + rad_j,
agent i is dropped when (rad_i + max rad)^2 (1 + 1e-9) + 1e-300 < out in
every row: the relative slack covers the rounding of both sides, the
absolute one subnormal squares, and a nan or overflowed radius never drops
an agent.  The pair loop then runs over the kept agents only.  It takes
the maximum of the same floating-point pair sums over a set of pairs that
holds the farthest one, and (x_a - x_j)^2 = (x_j - x_a)^2 exactly, so the
result is the same bit for bit.  disagreement is Gamma times the block,
dotted with it per row.  Each block's temporaries stay under glibc's
128 KiB mmap threshold, so they come from the heap rather than from freshly
mapped pages, and no temporary of the trace's full size is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .array_model import CONTINUOUS, ArraySpec, gamma_matrix, sync_complement_basis
from .errors import DimensionMismatch, Diverged
from .gains import GainSet, _gain_map, _theorem1
from .mwl import assemble_block_laplacian, laplacian_blocks, scatter_blocks
from .spectral import neutral_split

CONVERGED_RATIO = 1e-4
DIVERGED_RATIO = 10.0
SYNC_ABS_FLOOR = 1e-9   # times ||x0||; absolute convergence for sync starts
BOUND_CAP_FACTOR = 1e8  # times ||x0||
MAX_TRACE_ROWS = 100_000  # a trace keeps at most this many rows, plus the last state
MAX_STEPS = 2**63 - 2  # steps of one run, so its steps + 1 state indices fit in int64
# floats in one agent-major row block of the trace metrics; each temporary of a
# block stays under glibc's 128 KiB mmap threshold, so it is reused from the
# heap instead of mapped afresh (16000 floats = 125 KiB)
METRIC_BLOCK_CELLS = 16_000
# agents from which sync_error prunes its pair search: the anchor's distances
# and the centroid radii cost about what the skipped pairs save at q ~ 16.
# _metrics on alg1 traces of 401 / 20001 rows, all pairs -> pruned (one CPU):
# q=8 0.20 -> 0.30 / 9.6 -> 10.4 ms, q=16 0.78 -> 1.10 / 36 -> 23 ms,
# q=24 1.85 -> 1.36 / 82 -> 42 ms, q=64 13.5 -> 3.3 / 589 -> 152 ms
PRUNE_MIN_AGENTS = 16
# floats in the stacked step-matrix powers (unless R is larger), and about as
# many in a block of their products
POWER_TABLE_CELLS = 1 << 16
# one RK4 stage on a CSR Psi in multiply-adds of the dense product R x
# (single-thread BLAS, one CPU): ~1.8 us for the call and the copy of x and
# ~0.5 ns a nonzero, against ~0.14 ns a multiply-add of R x at qn = 120-400
STAGE_CALL_COST = 13_000
STAGE_FMA_COST = 3.6


@dataclass(frozen=True)
class SimTrace:
    times: np.ndarray        # (S,) kept sample times, S <= MAX_TRACE_ROWS + 1
    states: np.ndarray       # (S, q*n)
    sync_error: np.ndarray   # (S,) max over pairs of ||x_i - x_j||
    disagreement: np.ndarray  # (S,) x' [Gamma (x) I] x
    bounded: bool
    q: int
    n: int

    def verdict(self) -> str:
        """converged | diverged | inconclusive, per the declared bands."""
        x0_norm = float(np.linalg.norm(self.states[0]))
        s0 = float(self.sync_error[0])
        s_end = float(self.sync_error[-1])
        if not self.bounded:
            return "diverged"
        if s_end <= SYNC_ABS_FLOOR * max(x0_norm, 1e-300):
            return "converged"
        ratio = s_end / max(s0, 1e-12)
        if ratio <= CONVERGED_RATIO:
            return "converged"
        if ratio >= DIVERGED_RATIO:
            return "diverged"
        return "inconclusive"


@dataclass(frozen=True)
class ClosedLoop:
    """Psi (CT) or M (DT) as its q + E blocks: blocks[k] is block (rows[k],
    cols[k]) and fill (n x n) every other block.  The dense qn x qn array and
    the q x q normalized graph Laplacian Gamma are made on first read."""
    spec: ArraySpec
    epsilon: float | None  # discrete-time coupling step; None in CT
    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray
    fill: np.ndarray

    system_matrix = cached_property(
        lambda self: scatter_blocks(self.rows, self.cols, self.blocks, self.spec.q, self.fill))
    gamma = cached_property(lambda self: gamma_matrix(self.spec.graph))


def closed_loop(spec: ArraySpec, gains, epsilon: float | None = None) -> ClosedLoop:
    """Assemble x' = Psi x (CT) or x+ = M x (DT) from a spec and its gains.

    ``gains`` is a GainSet or a plain ``(i, j) -> G_ij`` map, taken as a
    GainSet, with one gain per edge of the spec and none for any other pair
    (_coupling_weights names the first fault).  In discrete time the
    coupling is scaled by ``epsilon``, defaulting to the gain set's eps_bar
    when it carries one.
    """
    gs = gains if isinstance(gains, GainSet) else GainSet.of(gains)
    q, A = spec.q, spec.A
    W = _coupling_weights(spec, gs.table)
    if spec.time_domain == CONTINUOUS:
        scale, eps_used = 1.0, None  # 1.0 * X is X bit for bit
    else:
        if epsilon is None:
            ebar = gs.eps_bar
            epsilon = ebar if ebar is not None and np.isfinite(ebar) else 1.0
        scale = eps_used = float(epsilon)
    # Psi = (I (x) A) - scale L_W block by block, bit for bit: x - y is (-y) + x
    # and (-s) y is -(s y); the blocks of I (x) A are A on the diagonal and
    # 0.0 * A off it, the fill included
    rows, cols, blocks = laplacian_blocks(spec.table.pairs, W, q)
    blocks *= -scale
    blocks[:q] += A
    blocks[q:] += 0.0 * A
    return ClosedLoop(spec, eps_used, rows, cols, blocks, fill=0.0 * -scale + 0.0 * A)


def _coupling_weights(spec, gains):
    """W_ij = G_ij C_ij in spec.table order from the gains' EdgeTable, one
    batched matmul per group.  DimensionMismatch names the first edge, in
    spec.C order, with no gain or one of the wrong shape, and then the first
    gain, in sorted pair order, that is not an edge's."""
    t, n = spec.table, spec.n
    at = gains.find(t.pairs)  # each edge's gain, -1 for none
    group = np.append(gains.where[:, 0], -1)  # each gain's group, -1 for none
    shapes = [G.shape[1:] for _, G in gains.groups]
    W, fault = np.empty((len(t.pairs), n, n)), len(t.pairs)
    for idx, S in t.groups:
        g = shapes.index((n, S.shape[1])) if (n, S.shape[1]) in shapes else -2
        if (ok := group[at[idx]] == g).all():
            W[idx] = gains.groups[g][1][gains.where[at[idx], 1]] @ S
        else:
            fault = min(fault, idx[~ok].min())
    if fault < len(t.pairs):
        (i, j), k = (t.pairs[fault] + 1).tolist(), at[fault]
        if k < 0:
            raise DimensionMismatch(f"no gain for edge ({i}, {j})")
        m = t.groups[t.where[fault, 0]][1].shape[1]
        raise DimensionMismatch(f"gain G_{i}{j} has shape {shapes[group[k]]}, expected ({n}, {m})")
    used = np.bincount(at + 1, minlength=len(gains.pairs) + 1)[1:]  # edges per gain
    if len(stray := gains.order[used[gains.order] == 0]):
        i, j = (gains.pairs[stray[0]] + 1).tolist()
        raise DimensionMismatch(f"gain for ({i}, {j}), which is not an edge of the spec")
    return W


def _pair_loop(T, out):
    """out <- max(out, max over i < j of sum_n (T[j] - T[i])^2), per row of T (q, n, rows)."""
    for i in range(len(T) - 1):
        d = T[i + 1:] - T[i]
        np.square(d, out=d)
        np.maximum(out, d.sum(axis=1).max(axis=0), out=out)


def _candidates(T, out):
    """Raise out to the anchor's pair values; True for each agent that may beat them.

    The anchor is the agent farthest from the block centroid in any row; its
    squared distances are summed as _pair_loop sums them.  The bound and its
    slack are the module docstring's; a side rounds through n + 3 operations."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = T - T.mean(axis=0)
        np.square(d, out=d)
        rad = np.sqrt(d.sum(axis=1))
        far = rad.max(axis=1).argmax()
        bound = np.square(rad + rad.max(axis=0)) * (1 + 1e-9) + 1e-300
    d = T - T[far]
    np.square(d, out=d)
    np.maximum(out, d.sum(axis=1).max(axis=0), out=out)
    return ~(bound < out).all(axis=1)


def _metrics(cl, states):
    q, n = cl.spec.q, cl.spec.n
    sync, disagreement = np.zeros(len(states)), np.empty(len(states))
    per_block = max(1, METRIC_BLOCK_CELLS // (q * n))
    for a in range(0, len(states), per_block):
        T = np.ascontiguousarray(states[a:a + per_block].reshape(-1, q, n).transpose(1, 2, 0))
        out = sync[a:a + per_block]
        if q >= PRUNE_MIN_AGENTS:
            _pair_loop(T[_candidates(T, out)], out)
        else:
            _pair_loop(T, out)
        G = (cl.gamma @ T.reshape(q, -1)).reshape(q * n, -1)
        disagreement[a:a + per_block] = np.einsum("ks,ks->s", G, T.reshape(q * n, -1))
    return np.sqrt(sync, out=sync), disagreement


def _trace(cl, times, states, bounded):
    return SimTrace(times, states, *_metrics(cl, states), bounded, cl.spec.q, cl.spec.n)


def _stride(points):
    return max(1, -(-points // MAX_TRACE_ROWS))


def _power_table(step_matrix):
    """[R; R^2; ...; R^B] stacked into one (B*qn, qn) array, built by doubling.

    B = max(1, POWER_TABLE_CELLS // qn^2) depends on the size of R only, never
    on a horizon.  The table stops before the first power with a non-finite
    entry, so inf * 0 in an overflowed power never reaches a state.
    """
    qn = len(step_matrix)
    B = max(1, POWER_TABLE_CELLS // (qn * qn))
    table = step_matrix
    while len(table) < B * qn:
        # R^(m+1) .. R^(m+j) = [R; ...; R^j] R^m, one GEMM per doubling
        more = table[:B * qn - len(table)] @ table[-qn:]
        finite = np.isfinite(more).reshape(-1, qn * qn).all(axis=1)
        if not finite.all():
            return np.concatenate((table, more[:finite.argmin() * qn]))
        table = np.concatenate((table, more))
    return table


def _step(advance, x0, points, cap_sq, width):
    """Step from x0 through `points` states, keeping every stride-th and the last.

    advance(x, out) writes the next `width` values, B = width // qn states,
    into out from x, the last state of the product before.  A block of up to
    POWER_TABLE_CELLS // width products is written into one buffer, reused
    for the whole run, and then tested against the cap and copied to the
    kept rows at once.  Returns (indices, rows, None) when every state stays
    within the cap, and (None, None, k) when state k is the first past it.
    """
    qn = len(x0)
    B = width // qn
    stride = _stride(points)
    last = points - 1
    indices = np.arange(0, points, stride)
    if indices[-1] != last:
        indices = np.append(indices, last)
    rows = np.empty((len(indices), qn))
    rows[0] = x0
    kept = 1
    per_block = max(1, POWER_TABLE_CELLS // width)
    # row 0 ends in the state a block starts from, row p + 1 holds product p
    Y = np.empty((per_block + 1, width))
    Y[0, -qn:] = x0
    for base in range(0, last, per_block * B):
        # every product gives the same states, so each state comes from the
        # same product whatever the horizon; states past `last` are dropped
        m = min(per_block, -(-(last - base) // B))
        for p in range(m):
            advance(Y[p, -qn:], Y[p + 1])
        X = Y[:m + 1].reshape(-1, qn)[B - 1:B + last - base]  # X[s] is state base + s
        # nan or inf in a row makes its norm nan or inf, so this also catches them
        within = np.einsum("ij,ij->i", X[1:], X[1:]) <= cap_sq
        if not within.all():  # X[i + 1] is the first past the cap, i = argmin
            return None, None, base + int(within.argmin()) + 1
        stop = np.searchsorted(indices, base + len(within), side="right")
        rows[kept:stop] = X[indices[kept:stop] - base]
        kept = stop
        Y[0, -qn:] = Y[m, -qn:]
    return indices, rows, None


def _iterate(cl, step, x0, points, h):
    """Step from x0 for `points` states h apart; raises Diverged past the cap.

    `step` is a step matrix R, stepped x <- R x through _power_table(R), or an
    advance(x, out) that writes the next state, as _stages makes.  The trace
    keeps every stride-th state and the last, stride = ceil(points /
    MAX_TRACE_ROWS), so memory is bounded for any horizon.  A diverged run is
    stepped again up to the crossing, through the same products and so the
    same states, and its trace keeps the states before the crossing by the
    same rule, applied to their own count.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    qn = cl.spec.q * cl.spec.n
    if x0.shape[0] != qn:
        raise DimensionMismatch(f"x0 has length {x0.shape[0]}, expected {qn}")
    cap_sq = (BOUND_CAP_FACTOR * max(np.linalg.norm(x0), 1e-300)) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        width = qn
        if isinstance(step, np.ndarray):
            table = _power_table(step)
            step, width = (lambda x, out: np.matmul(table, x, out=out)), len(table)
        indices, rows, k = _step(step, x0, points, cap_sq, width)
        if k is not None:
            indices, rows, _ = _step(step, x0, k, cap_sq, width)
    trace = _trace(cl, indices * h, rows, bounded=k is None)
    if k is None:
        return trace
    raise Diverged(f"state norm exceeded the divergence cap at t = {k * h:g}", trace)


def _add_identity(M):
    """M <- I + M, rounded as np.eye(len(M)) + M: 0.0 + -0.0 is 0.0 off the diagonal."""
    M.flat[::len(M) + 1] += 1.0
    M += 0.0


def rk4_step_matrix(system_matrix: np.ndarray, h: float) -> np.ndarray:
    """I + h Psi + ... + (h Psi)^4 / 24, the classical RK4 update for x' = Psi x.

    Horner's rule, R = I + hPsi/4 and then R <- I + (hPsi/k) R for k = 3, 2,
    1, on a dense Psi, in four arrays of its size: hPsi, hPsi/k and the two
    R's, each product written into the one not being read.
    """
    hA = h * system_matrix
    R, term, other = np.divide(hA, 4), np.empty_like(hA), np.empty_like(hA)
    _add_identity(R)
    for k in (3, 2, 1):
        np.divide(hA, k, out=term)
        np.matmul(term, R, out=other)
        _add_identity(other)
        R, other = other, R
    return R


def _csr_psi(cl):
    """Psi as a scipy.sparse.csr_array of its stored blocks in O(nnz): a BSR
    of them in row-major block order, then tocsr and eliminate_zeros,
    bit-equal to csr_array(Psi) wherever the fill is zero."""
    from scipy.sparse import bsr_array

    q, n = cl.spec.q, cl.spec.n
    s = np.argsort(cl.rows * q + cl.cols)
    # int32 indices, as csr_array(Psi) has them
    j, indptr = cl.cols[s].astype(np.int32), np.searchsorted(cl.rows[s], np.arange(q + 1)).astype(np.int32)
    psi = bsr_array((cl.blocks[s], j, indptr), shape=(q * n, q * n)).tocsr()
    psi.eliminate_zeros()
    return psi


def _stages(psi, h):
    """advance(x, out): out <- x + hPsi(x + (hPsi/2)(x + (hPsi/3)(x + (hPsi/4) x)))
    for a CSR Psi, each stage one csr_matvec into a buffer that holds x."""
    from scipy.sparse._sparsetools import csr_matvec

    qn = psi.shape[0]
    hA = h * psi.data
    stages = [hA / k for k in (4, 3, 2, 1)]
    a, b = np.empty(qn), np.empty(qn)

    def advance(x, out):
        v = x
        for data, y in zip(stages, (a, b, a, out)):
            y[:] = x
            csr_matvec(qn, qn, psi.indptr, psi.indices, data, v, y)
            v = y

    return advance


def simulate_ct(cl: ClosedLoop, x0, T: float = 100.0, h: float = 1e-3) -> SimTrace:
    """Fixed-step RK4 integration of the continuous-time closed loop.

    Steps the RK4 stages on a CSR Psi when the operation count of the module
    docstring says they cost less than R x, and R otherwise.
    """
    if h <= 0.0 or T < h:
        raise ValueError(f"need 0 < h <= T, got h={h}, T={T}")
    if not T / h <= MAX_STEPS:
        raise ValueError(f"need T / h <= {MAX_STEPS}, got {T / h}")
    steps = int(round(T / h))
    q, n, E = cl.spec.q, cl.spec.n, len(cl.spec.table.pairs)
    if 4 * (STAGE_CALL_COST + STAGE_FMA_COST * n * n * (q + E)) < (q * n) ** 2:
        return _iterate(cl, _stages(_csr_psi(cl), h), x0, steps + 1, h)
    return _iterate(cl, rk4_step_matrix(cl.system_matrix, h), x0, steps + 1, h)


def simulate_dt(cl: ClosedLoop, x0, K: int) -> SimTrace:
    """x(k+1) = M x(k) of the discrete-time closed loop, stepped by the dense
    power table: equal to one product per step only to rounding at qn <= 181."""
    if not 1 <= K <= MAX_STEPS:
        raise ValueError(f"need 1 <= K <= {MAX_STEPS}, got {K}")
    return _iterate(cl, cl.system_matrix, x0, K + 1, 1.0)


def rho_sweep(spec: ArraySpec, P: np.ndarray, alphas):
    """max Re of the closed-loop spectrum off the sync subspace, per coupling alpha.

    Gains are alpha P^-1 C_ij^T.  The sync subspace 1 (x) R^n is invariant
    under any such coupling, so the rest of the spectrum is exactly
    eig(V' Psi V) with V = Q (x) I_n, Q from sync_complement_basis; rho is
    -inf for a single agent.  Returns [(alpha, rho), ...] in input order.
    A gain P^-1 C_ij^T that is not finite is refused, naming its edge, as
    gains_theorem1 refuses it.  Raises OverflowError, naming alpha, when the
    quotient at an alpha has an entry that does not fit a double.
    """
    P = np.asarray(P, dtype=float)
    q, n = spec.q, spec.n
    V = np.kron(sync_complement_basis(q), np.eye(n))
    # Psi(alpha) = I (x) A - alpha L_W with W_ij = P^-1 C_ij' C_ij, so its
    # quotient is one fixed matrix minus alpha times another; V'(I (x) A)V is
    # (Q'Q) (x) A = I (x) A exactly, so the drift needs no projection
    drift = np.kron(np.eye(q - 1), spec.A)
    # W_ij = G_ij C_ij of the theorem1 gains at alpha = 1: 1.0 P^-1 C_ij' is P^-1 C_ij' bit for bit
    weights = _coupling_weights(spec, _gain_map(spec, _theorem1(P, 1.0)))
    coupling = V.T @ assemble_block_laplacian(spec.table.pairs, weights, q) @ V
    quotient = np.empty_like(coupling)  # drift - alpha coupling, for each alpha in turn
    out = []
    for alpha in alphas:
        alpha = float(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(alpha, coupling, out=quotient)
            np.subtract(drift, quotient, out=quotient)
        if not np.isfinite(quotient).all():
            raise OverflowError(f"the closed-loop quotient overflows at alpha = {alpha!r}")
        lam = np.linalg.eigvals(quotient)
        out.append((alpha, float(np.max(lam.real, initial=-np.inf))))
    return out


def asymptotic_anchor(A_big: np.ndarray, x0, w_times, w_values) -> np.ndarray:
    """Anchor v with ||x(t) - exp(A_big t) v|| -> 0 for decaying forcing.

    Implements the constructive choice v = U (z1(0) + int_0^inf exp(-S tau)
    w1(tau) dtau) from the neutral split of A_big; the integral is evaluated
    by the trapezoid rule over the supplied forcing trace.  Stable A_big
    (empty marginal part) yields v = 0.
    """
    A_big = np.asarray(A_big, dtype=float)
    x0 = np.asarray(x0, dtype=float).ravel()
    w_times = np.asarray(w_times, dtype=float)
    w_values = np.asarray(w_values, dtype=float)
    if w_values.ndim == 1:
        w_values = w_values[:, None]
    if w_values.shape != (len(w_times), A_big.shape[0]):
        raise DimensionMismatch(
            f"forcing trace has shape {w_values.shape}, expected "
            f"({len(w_times)}, {A_big.shape[0]})"
        )
    split = neutral_split(A_big, CONTINUOUS)
    if split.n1 == 0:
        return np.zeros(A_big.shape[0])
    S = split.marginal_block
    w1 = w_values @ split.U_dag.T  # (S, n1)

    integral = np.zeros(split.n1)
    if len(w_times) >= 2:
        E = sla.expm(-S * w_times[0])
        prev = E @ w1[0]
        prop_cache = {}
        for k in range(1, len(w_times)):
            dt = w_times[k] - w_times[k - 1]
            key = round(dt, 15)
            if key not in prop_cache:
                prop_cache[key] = sla.expm(-S * dt)
            E = E @ prop_cache[key]
            cur = E @ w1[k]
            integral += 0.5 * dt * (prev + cur)
            prev = cur
    return split.U @ (split.U_dag @ x0 + integral)
