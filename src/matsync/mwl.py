"""Matrix-weighted Laplacian assembly and its quadratic form.

The block layout generalizes the scalar weighted Laplacian: diagonal block
``(i, i)`` holds the row sum of the edge weights ``Q_ij`` and off-diagonal
block ``(i, j)`` holds ``-Q_ij``.  With symmetric PSD weights the result is
symmetric PSD; the stacked all-ones directions are in the null space even
for asymmetric weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArraySpec, sync_complement_basis
from .errors import DimensionMismatch

RANK_TOL = 1e-9  # nullity(): singular values below RANK_TOL * sigma_max are zero


@dataclass(frozen=True)
class MatrixWeightedLaplacian:
    L: np.ndarray
    q: int
    n: int
    source: str  # "from_Q" | "from_C"
    blocks: dict

    def nullity(self) -> int:
        """Null-space dimension via singular values below RANK_TOL * sigma_max."""
        s = np.linalg.svd(self.L, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return self.L.shape[0]
        return int(np.sum(s <= RANK_TOL * s[0]))


def assemble_block_laplacian(blocks: dict, q: int, n: int) -> np.ndarray:
    """Raw Laplacian-patterned block matrix; no PSD semantics implied."""
    L = np.zeros((q * n, q * n))
    for (i, j), B in blocks.items():
        if i == j:
            continue
        r = slice(i * n, (i + 1) * n)
        c = slice(j * n, (j + 1) * n)
        L[r, c] -= B
        L[r, r] += B
    return L


def build_laplacian(Q: dict, q: int, n: int | None = None) -> MatrixWeightedLaplacian:
    """Assemble the matrix-weighted Laplacian from edge weights Q_ij.

    Weight blocks must be square with one shared size; diagonal entries of
    the map must be absent or zero.
    """
    blocks = {}
    for (i, j), B in Q.items():
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[0] != B.shape[1]:
            raise DimensionMismatch(f"weight Q_{i + 1}{j + 1} is not square: {B.shape}")
        if n is None:
            n = B.shape[0]
        if B.shape != (n, n):
            raise DimensionMismatch(
                f"weight Q_{i + 1}{j + 1} has shape {B.shape}, expected ({n}, {n})"
            )
        if i == j:
            if np.linalg.norm(B) > 0.0:
                raise DimensionMismatch(f"diagonal weight Q_{i + 1}{i + 1} must be zero")
            continue
        if not (0 <= i < q and 0 <= j < q):
            raise DimensionMismatch(f"edge ({i + 1}, {j + 1}) outside 1..{q}")
        blocks[(i, j)] = B
    if n is None:
        raise DimensionMismatch("cannot infer block size from an empty weight map")
    return MatrixWeightedLaplacian(
        L=assemble_block_laplacian(blocks, q, n),
        q=q,
        n=n,
        source="from_Q",
        blocks=blocks,
    )


def laplacian_from_outputs(
    spec: ArraySpec, pre_transform: np.ndarray | None = None
) -> MatrixWeightedLaplacian:
    """Weights Q_ij = C_ij^T C_ij, optionally with C_ij replaced by C_ij @ pre_transform.

    The pre-transform hook covers the reduced Laplacian built from
    H_ij = C_ij U on the marginal subspace basis U.
    """
    Q = {}
    for (i, j), C in spec.C.items():
        H = C if pre_transform is None else C @ pre_transform
        Q[(i, j)] = H.T @ H
    n = spec.n if pre_transform is None else pre_transform.shape[1]
    lw = build_laplacian(Q, spec.q, n=n)
    return MatrixWeightedLaplacian(
        L=lw.L, q=lw.q, n=lw.n, source="from_C", blocks=lw.blocks
    )


def disagreement(lw: MatrixWeightedLaplacian, x: np.ndarray) -> float:
    """Quadratic form x^T L x; equals the edge sum of ||C_ij (x_j - x_i)||^2
    when the weights come from symmetric outputs."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != lw.q * lw.n:
        raise DimensionMismatch(f"state has length {x.shape[0]}, expected {lw.q * lw.n}")
    return float(x @ lw.L @ x)


def sync_projector(q: int, n: int) -> np.ndarray:
    """J (x) I_n: the orthogonal projector onto the complement of the
    synchronization subspace, VV' with V = sync_complement_basis(q) (x) I_n."""
    V = np.kron(sync_complement_basis(q), np.eye(n))
    return V @ V.T
