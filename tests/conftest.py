import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from matsync import ArraySpec, pbh_detectable


TRACE_RTOL = 1e-11  # simulated states, times ||x_row||_2, against another computation

# neutrally stable drifts whose split basis [U W] has a condition number past
# spectral.COND_LIMIT: the neutral recipes refuse them, and so must `check`
DT_ILL_SPLIT_SPEC = (
    "q 2\nn 2\ntime_domain discrete\nA\n1.0 1000.0\n0.0 0.999985\n"
    "edge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"
)
CT_ILL_SPLIT_SPEC = (
    "q 2\nn 2\nA\n0.0 1000.0\n0.0 -1.5e-05\nedge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"
)

# P passes the certificate of A = 0, but theorem1 cannot invert it
SINGULAR_P_SPEC = (
    "q 2\nn 2\nA\n0.0 0.0\n0.0 0.0\nedge 1 2\n1.0 0.0\n0.0 1.0\n"
    "edge 2 1\n1.0 0.0\n0.0 1.0\nP\n1.0 0.0\n0.0 1e-15\n"
)

# P passes the certificate, but P^-1 C' overflows: theorem1's gains are not finite
TINY_P_SPEC = "q 2\nn 1\nA\n-1.0\nedge 1 2\n1e154\nedge 2 1\n1e154\nP\n1e-160\n"

# each C_ij'C_ij overflows to inf: the CL certificate can prove nothing of it
OVERFLOWING_WEIGHTS_SPEC = (
    "q 2\nn 2\nA\n0.5 0.0\n0.0 0.5\nedge 1 2\n1e155 1e155\nedge 2 1\n1e155 1e155\n"
)

# a neutral CT drift whose alg1 gains U U' C' overflow: alg1 refuses them
CT_OVERFLOWING_GAINS_SPEC = (
    "q 2\nn 2\nA\n0.0 4.0\n-0.25 0.0\nedge 1 2\n1.7e308 1.7e308\nedge 2 1\n1.7e308 1.7e308\n"
)

# a DT rotation whose reduced weights H'H, H = C U, overflow: alg2's gains are
# finite, but eps_bar refuses the Laplacian of inf weights
DT_OVERFLOWING_WEIGHTS_SPEC = (
    "q 2\nn 2\ntime_domain discrete\nA\n0.0 1.0\n-1.0 0.0\n"
    "edge 1 2\n1e155 1e155\nedge 2 1\n1e155 1e155\n"
)

# mirrors equal only under MATSYNC_TOL=1e-5: the spec is symmetric, but the
# reduced Laplacian of its stored outputs is not, and eps_bar refuses it
DT_NEAR_MIRROR_SPEC = (
    "q 2\nn 2\ntime_domain discrete\nA\n0.0 1.0\n-1.0 0.0\n"
    "edge 1 2\n1.0 0.0\nedge 2 1\n1.000001 0.0\n"
)


def assert_exit_contract(command, rc, out, err):
    """The CLI's outcome rule: exit 1 goes with an `error: ` line on stderr,
    exit 2 with a `hypothesis failed: ` line (`check` prints its report and
    nothing on stderr instead), and no output holds a traceback."""
    assert (rc == 1) == err.startswith("error: "), (rc, err)
    assert (rc == 2 and command != "check") == err.startswith("hypothesis failed: "), (rc, err)
    if command == "check" and rc == 2:
        assert err == ""
    assert "Traceback" not in out and "Traceback" not in err


def row_deviation(got, want):
    """max over rows of max |got - want| / ||want_row||_2."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    return float(np.max(np.abs(got - want).max(axis=1) / np.linalg.norm(want, axis=1)))


def random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def well_conditioned_transform(rng, n):
    return (
        random_orthogonal(rng, n)
        @ np.diag(rng.uniform(0.6, 1.6, n))
        @ random_orthogonal(rng, n)
    )


def connected_edge_pairs(rng, q, extra=1):
    """Unordered pairs of a random spanning tree plus `extra` chords."""
    pairs = set()
    order = rng.permutation(q)
    for k in range(1, q):
        a = order[k]
        b = order[rng.integers(0, k)]
        pairs.add((min(a, b), max(a, b)))
    candidates = [
        (i, j) for i in range(q) for j in range(i + 1, q) if (i, j) not in pairs
    ]
    rng.shuffle(candidates)
    pairs.update(candidates[:extra])
    return sorted(pairs)


def marginal_block_ct(rng, n1):
    X = rng.standard_normal((n1, n1))
    return X - X.T


def marginal_block_dt(rng, n1):
    blocks = []
    k = n1
    while k >= 2:
        th = rng.uniform(0.2, np.pi - 0.2)
        blocks.append(np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]))
        k -= 2
    if k == 1:
        blocks.append(np.array([[rng.choice([-1.0, 1.0])]]))
    return sla.block_diag(*blocks)


def stable_block(rng, n2, domain):
    if n2 == 0:
        return np.zeros((0, 0))
    F = rng.standard_normal((n2, n2))
    if domain == "continuous":
        shift = np.max(np.linalg.eigvals(F).real)
        return F - (shift + rng.uniform(0.3, 0.8)) * np.eye(n2)
    radius = np.max(np.abs(np.linalg.eigvals(F)))
    return F * (rng.uniform(0.3, 0.7) / max(radius, 1e-9))


def random_neutrally_stable(rng, n, domain="continuous", n1=None):
    """A = T blkdiag(marginal, stable) T^-1 with a well-conditioned T."""
    if n1 is None:
        n1 = int(rng.integers(1, n + 1))
    n2 = n - n1
    marginal = (
        marginal_block_ct(rng, n1) if domain == "continuous" else marginal_block_dt(rng, n1)
    )
    blk = sla.block_diag(marginal, stable_block(rng, n2, domain))
    T = well_conditioned_transform(rng, n)
    return T @ blk @ np.linalg.inv(T)


def random_symmetric_spec(rng, q, n, domain="continuous", extra_edges=1, A=None):
    """Connected symmetric spec with detectable random edge outputs."""
    if A is None:
        A = random_neutrally_stable(rng, n, domain)
    cmap = {}
    for (i, j) in connected_edge_pairs(rng, q, extra=extra_edges):
        for _ in range(50):
            m = int(rng.integers(1, n + 1))
            C = rng.standard_normal((m, n))
            C = C / np.linalg.norm(C) * rng.uniform(1.0, 2.0)
            if pbh_detectable(C, A, domain):
                break
        else:
            raise AssertionError("could not draw a detectable edge output")
        cmap[(i, j)] = C
        cmap[(j, i)] = C
    return ArraySpec(q=q, n=n, A=A, C=cmap, time_domain=domain)


def random_complete_cl_spec(rng, q, n):
    """Complete graph with invertible edge outputs; a common P always exists.

    The drift may be unstable, but its spectral abscissa is capped so that
    the synchronized motion e^{At} stays within the divergence cap over the
    finite test horizons (synchronization does not imply boundedness here).
    """
    A = rng.standard_normal((n, n)) * 0.7
    abscissa = float(np.max(np.linalg.eigvals(A).real))
    A = A + (rng.uniform(-0.3, 0.04) - abscissa) * np.eye(n)
    cmap = {}
    for i in range(q):
        for j in range(i + 1, q):
            C = (
                random_orthogonal(rng, n)
                @ np.diag(rng.uniform(0.8, 1.5, n))
                @ random_orthogonal(rng, n)
            )
            cmap[(i, j)] = C
            cmap[(j, i)] = C
    return ArraySpec(q=q, n=n, A=A, C=cmap, time_domain="continuous")


def sweep_gains(spec, P, alpha):
    """The gains alpha P^-1 C_ij' that `rho_sweep` and `matsync sweep` use."""
    return {e: alpha * np.linalg.solve(P, C.T) for e, C in spec.C.items()}


def multiset_gap(a, b):
    """Largest |a_i - b_j| over the one-to-one matching of least total distance."""
    cost = np.abs(np.subtract.outer(np.asarray(a), np.asarray(b)))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max(initial=0.0))


def off_sync_eigenvalues(system, q, n):
    """eig(V' Psi V), V = N (x) I_n with N an orthonormal null-space basis of 1_q'."""
    V = np.kron(sla.null_space(np.ones((1, q))), np.eye(n))
    return np.linalg.eigvals(V.T @ system @ V)


def spectrum_partition_gap(system, A, q):
    """How far eig(Psi) is from the multiset eig(A) + eig(V' Psi V), relative to
    max(1, ||Psi||_2)."""
    n = A.shape[0]
    parts = np.concatenate([np.linalg.eigvals(A), off_sync_eigenvalues(system, q, n)])
    gap = multiset_gap(np.linalg.eigvals(system), parts)
    return gap / max(1.0, np.linalg.norm(system, 2))


def random_spd(rng, n, cond=10.0):
    Q = random_orthogonal(rng, n)
    return Q @ np.diag(rng.uniform(1.0, cond, n)) @ Q.T


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
