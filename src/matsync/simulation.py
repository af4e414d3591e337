"""Closed-loop assembly, fixed-step simulation, and the coupling sweep.

Trajectories are integrated with the classical 4th-order Runge-Kutta
method at a fixed step.  For the linear closed loop the RK4 update is the
degree-4 Taylor polynomial of exp(h Psi), so the step matrix R is formed
once.  It equals stepping the stage equations in exact arithmetic only;
the two round differently.

A run steps by products of a power table.  The powers [R; R^2; ...; R^B]
are stacked once per run, with B = max(1, POWER_TABLE_CELLS // qn^2), so B
depends on the state size alone, and each product of the table with the
last state of the product before gives the next B states.  The states match
those of one product per step to rounding, not bit for bit; at qn >= 182,
B = 1 and the products are the same.  The products are made in blocks of up
to POWER_TABLE_CELLS // (B qn), each written into one buffer that the run
reuses.  The divergence cap is then tested on every state of the block, so
the first state past it is found exactly, and the kept rows are copied out,
once per block: at B = 1 a state costs one np.matmul call into its row of
the buffer, and the bookkeeping runs once per block, not once per state.
closed_loop forms Psi in the qn x qn array of L_W that
assemble_block_laplacian returns, so it makes no throwaway temporary of
that size.

Psi has the graph's block pattern: an n x n block on the diagonal and one
per edge.  simulate_ct counts, from the edge table, the multiply-adds of
rk4_step_matrix's three Horner products done row by row in CSR (Gustavson,
ACM TOMS 4, 1978, as scipy.sparse does them), and hands it Psi as a
scipy.sparse.csr_array when CSR_FMA_COST times that count is below the
3 (qn)^3 of the dense GEMMs.  Otherwise rk4_step_matrix works in four
dense arrays of Psi's size.  Chains take the CSR products from q = 54 on
and random trees from q ~ 70-90; stars, complete graphs and the bundled
examples keep the dense ones.

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

import numpy as np
import scipy.linalg as sla

from .array_model import (
    CONTINUOUS,
    ArraySpec,
    build_graph,
    gamma_matrix,
    sync_complement_basis,
)
from .errors import DimensionMismatch, Diverged
from .gains import GainSet
from .mwl import assemble_block_laplacian
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
# a CSR multiply-add of scipy.sparse against one FMA of a dense single-thread
# GEMM: the time of rk4_step_matrix in CSR over that in dense, times the dense
# count over the CSR count, was 170-205 on chains and random trees at q = 50
# and 100, n = 4, where the two take about the same time (q = 50) or CSR
# 2-3x less (q = 100); 90 on stars and 35-60 on complete graphs, which the
# count keeps dense anyway
CSR_FMA_COST = 200


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
    system_matrix: np.ndarray  # qn x qn
    spec: ArraySpec
    epsilon: float | None      # discrete-time coupling step; None in CT
    gamma: np.ndarray          # q x q normalized graph Laplacian matrix


def closed_loop(spec: ArraySpec, gains, epsilon: float | None = None) -> ClosedLoop:
    """Assemble x' = Psi x (CT) or x+ = M x (DT) from a spec and its gains.

    ``gains`` is a GainSet or a plain ``(i, j) -> G_ij`` map with one gain
    per edge of the spec and none for any other pair.  In discrete time the
    coupling is scaled by ``epsilon``, defaulting to the gain set's eps_bar
    when it carries one.
    """
    gmap = gains.gains if isinstance(gains, GainSet) else dict(gains)
    q, n, A, t = spec.q, spec.n, spec.A, spec.table
    G = []
    for (i, j), C in spec.C.items():
        Gk = gmap.get((i, j))
        if Gk is None:
            raise DimensionMismatch(f"no gain for edge ({i + 1}, {j + 1})")
        G.append(np.atleast_2d(np.asarray(Gk, dtype=float)))
        if G[-1].shape != (n, C.shape[0]):
            raise DimensionMismatch(
                f"gain G_{i + 1}{j + 1} has shape {G[-1].shape}, "
                f"expected ({n}, {C.shape[0]})"
            )
    stray = sorted(set(gmap) - set(spec.C))
    if stray:
        i, j = stray[0]
        raise DimensionMismatch(f"gain for ({i + 1}, {j + 1}), which is not an edge of the spec")
    if spec.time_domain == CONTINUOUS:
        scale, eps_used = 1.0, None  # 1.0 * X is X bit for bit
    else:
        if epsilon is None:
            ebar = gains.eps_bar if isinstance(gains, GainSet) else None
            epsilon = ebar if ebar is not None and np.isfinite(ebar) else 1.0
        scale = eps_used = float(epsilon)

    W = np.empty((len(G), n, n))
    for idx, S in t.groups:
        W[idx] = np.array([G[k] for k in idx]) @ S
    # Psi = (I (x) A) - scale L_W in L_W's own array, bit for bit: x - y is
    # (-y) + x and (-s) y is -(s y); the blocks of I (x) A are A on the
    # diagonal and 0.0 * A off it
    psi = assemble_block_laplacian(t.pairs, W, q)
    psi *= -scale
    blocks = psi.reshape(q, n, q, n).transpose(0, 2, 1, 3)  # a view: blocks[i, j] is block (i, j)
    d = np.arange(q)
    diag = blocks[d, d]
    blocks += 0.0 * A
    blocks[d, d] = diag + A

    return ClosedLoop(
        system_matrix=psi, spec=spec, epsilon=eps_used,
        gamma=gamma_matrix(build_graph(spec)),
    )


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
    slack are those of the module docstring: the relative slack covers the
    rounding of the n + 3 operations behind each side, the absolute one
    subnormal squares, and a nan or overflowed radius is never below out.
    """
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
    sync, dis = _metrics(cl, states)
    return SimTrace(
        times=times,
        states=states,
        sync_error=sync,
        disagreement=dis,
        bounded=bounded,
        q=cl.spec.q,
        n=cl.spec.n,
    )


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


def _step(table, x0, points, cap_sq):
    """Step x <- R x through `points` states, keeping every stride-th and the last.

    `table` is _power_table(R): each product table @ x gives the next B
    states from the last state of the product before.  A block of up to
    POWER_TABLE_CELLS // len(table) products is written into one buffer,
    reused for the whole run, and then tested against the cap and copied to
    the kept rows at once.  Returns (indices, rows, k).  k is None when every
    state stays within the cap.  Otherwise state k is the first past it, and
    the rows are those the stride of `points` keeps among states 0..k-1, plus
    state k-1.
    """
    qn, width = len(x0), len(table)
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
        # every product uses the whole table, so each state comes from the same
        # product whatever the horizon; states past `last` are dropped
        m = min(per_block, -(-(last - base) // B))
        for p in range(m):
            np.matmul(table, Y[p, -qn:], out=Y[p + 1])
        X = Y[:m + 1].reshape(-1, qn)[B - 1:B + last - base]  # X[s] is state base + s
        # nan or inf in a row makes its norm nan or inf, so this also catches them
        within = np.einsum("ij,ij->i", X[1:], X[1:]) <= cap_sq
        end = len(within) if within.all() else int(within.argmin())  # X[end + 1] is past the cap
        stop = np.searchsorted(indices, base + end, side="right")
        rows[kept:stop] = X[indices[kept:stop] - base]
        kept = stop
        if end < len(within):
            k = base + end + 1
            if (k - 1) % stride:
                rows[kept] = X[end]
                indices[kept] = k - 1
                kept += 1
            return indices[:kept], rows[:kept], k
        Y[0, -qn:] = Y[m, -qn:]
    return indices, rows, None


def _iterate(cl, step_matrix, x0, points, h):
    """Step x <- R x from x0 for `points` states h apart; raises Diverged past the cap.

    The trace keeps every stride-th state and the last, stride =
    ceil(points / MAX_TRACE_ROWS), so memory is bounded for any horizon.  A
    diverged trace keeps the states before the crossing by the same rule,
    applied to their own count.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    qn = cl.spec.q * cl.spec.n
    if x0.shape[0] != qn:
        raise DimensionMismatch(f"x0 has length {x0.shape[0]}, expected {qn}")
    cap_sq = (BOUND_CAP_FACTOR * max(np.linalg.norm(x0), 1e-300)) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        table = _power_table(step_matrix)
        indices, rows, k = _step(table, x0, points, cap_sq)
        if k is not None and _stride(k) != _stride(points):
            # the same products again, so the same states, kept at the shorter stride
            indices, rows, _ = _step(table, x0, k, cap_sq)
    if k is None:
        return _trace(cl, indices * h, rows, bounded=True)
    trace = _trace(cl, indices * h, rows, bounded=False)
    raise Diverged(f"state norm exceeded the divergence cap at t = {k * h:g}", trace)


def _add_identity(M):
    """M <- I + M, rounded as np.eye(len(M)) + M: 0.0 + -0.0 is 0.0 off the diagonal."""
    M.flat[::len(M) + 1] += 1.0
    M += 0.0


def _csr_is_cheaper(pairs, q):
    """Whether rk4_step_matrix's three Horner products cost less in CSR.

    S, the q x q 0/1 block pattern of hPsi, has the diagonal and the (E, 2)
    pairs.  Before product k = 1, 2, 3, R has the pattern of S^k.  A
    row-wise CSR product hPsi R takes, for each block (i, j) of hPsi, n^3
    multiply-adds per block of block row j of R: n^3 1'S S^k 1 in all, the
    column counts of S dotted with the row counts of S^k.  The dense GEMMs
    take 3 (qn)^3.  The count stops once it is past that budget.
    """
    S = np.eye(q)
    S[pairs[:, 0], pairs[:, 1]] = 1.0
    into, reach, count = S.sum(axis=0), S, 0.0
    for k in range(3):
        count += into @ reach.sum(axis=1)  # integers, exact in float64
        if CSR_FMA_COST * count >= 3 * q**3:
            return False
        if k < 2:
            reach = np.minimum(S @ reach, 1.0)
    return True


def rk4_step_matrix(system_matrix, h: float) -> np.ndarray:
    """I + h Psi + ... + (h Psi)^4 / 24, the classical RK4 update for x' = Psi x.

    Horner's rule, R = I + hPsi/4 and then R <- I + (hPsi/k) R for k = 3, 2,
    1.  A dense Psi is worked in four arrays of its size: hPsi, hPsi/k and
    the two R's, each product written into the one not being read.  A
    scipy.sparse CSR Psi is worked in CSR, whose products skip the zero
    blocks, and R is returned dense; the two round differently.
    """
    hA = h * system_matrix
    if not isinstance(hA, np.ndarray):
        from scipy.sparse import eye_array

        eye = eye_array(hA.shape[0], format="csr")
        R = hA / 4 + eye
        for k in (3, 2, 1):
            R = (hA / k) @ R + eye
        return R.toarray()
    R, term, other = np.divide(hA, 4), np.empty_like(hA), np.empty_like(hA)
    _add_identity(R)
    for k in (3, 2, 1):
        np.divide(hA, k, out=term)
        np.matmul(term, R, out=other)
        _add_identity(other)
        R, other = other, R
    return R


def simulate_ct(cl: ClosedLoop, x0, T: float = 100.0, h: float = 1e-3) -> SimTrace:
    """Fixed-step RK4 integration of the continuous-time closed loop.

    The step matrix is formed from Psi in CSR when _csr_is_cheaper says so
    for the spec's edge table, and from the dense Psi otherwise.
    """
    if h <= 0.0 or T < h:
        raise ValueError(f"need 0 < h <= T, got h={h}, T={T}")
    if not T / h <= MAX_STEPS:
        raise ValueError(f"need T / h <= {MAX_STEPS}, got {T / h}")
    steps = int(round(T / h))
    psi = cl.system_matrix
    if _csr_is_cheaper(cl.spec.table.pairs, cl.spec.q):
        from scipy.sparse import csr_array

        psi = csr_array(psi)
    return _iterate(cl, rk4_step_matrix(psi, h), x0, steps + 1, h)


def simulate_dt(cl: ClosedLoop, x0, K: int) -> SimTrace:
    """Exact iteration x(k+1) = M x(k) of the discrete-time closed loop."""
    if not 1 <= K <= MAX_STEPS:
        raise ValueError(f"need 1 <= K <= {MAX_STEPS}, got {K}")
    return _iterate(cl, cl.system_matrix, x0, K + 1, 1.0)


def rho_sweep(spec: ArraySpec, P: np.ndarray, alphas):
    """max Re of the closed-loop spectrum off the sync subspace, per coupling alpha.

    Gains are alpha P^-1 C_ij^T.  The sync subspace 1 (x) R^n is invariant
    under any such coupling, so the rest of the spectrum is exactly
    eig(V' Psi V) with V = Q (x) I_n, Q from sync_complement_basis; rho is
    -inf for a single agent.  Returns [(alpha, rho), ...] in input order.
    Raises OverflowError, naming alpha, when the quotient at an alpha has an
    entry that does not fit a double.
    """
    P = np.asarray(P, dtype=float)
    q, n = spec.q, spec.n
    V = np.kron(sync_complement_basis(q), np.eye(n))
    # Psi(alpha) = I (x) A - alpha L_W with W_ij = P^-1 C_ij' C_ij, so its
    # quotient is one fixed matrix minus alpha times another; V'(I (x) A)V is
    # (Q'Q) (x) A = I (x) A exactly, so the drift needs no projection
    drift = np.kron(np.eye(q - 1), spec.A)
    weights = spec.table.apply(lambda S: np.linalg.solve(P, S.transpose(0, 2, 1)) @ S)
    coupling = V.T @ assemble_block_laplacian(spec.table.pairs, np.array(weights).reshape(-1, n, n), q) @ V
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
