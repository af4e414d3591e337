"""Matrix-weighted Laplacian assembly; every function returns plain arrays.

The block layout generalizes the scalar weighted Laplacian: diagonal block
``(i, i)`` holds the row sum of the edge weights ``Q_ij`` and off-diagonal
block ``(i, j)`` holds ``-Q_ij``.  With symmetric PSD weights the result is
symmetric PSD; the stacked all-ones directions are in the null space even
for asymmetric weights.
"""

from __future__ import annotations

import numpy as np

from .array_model import ArraySpec, stacks
from .errors import DimensionMismatch


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


def build_laplacian(Q: dict, q: int, n: int | None = None) -> np.ndarray:
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
    return assemble_block_laplacian(blocks, q, n)


def output_weights(Cs, n, pre_transform=None) -> np.ndarray:
    """(E, k, k) stack of the weights H'H, H = C or C @ pre_transform, in the
    order of Cs: one batched matmul per shape group, bit-equal to H.T @ H."""
    k = n if pre_transform is None else pre_transform.shape[1]
    out = np.empty((len(Cs), k, k))
    for idx, H in stacks(Cs):
        if H.shape[2] != n:
            raise DimensionMismatch(f"output matrix has {H.shape[2]} columns, expected {n}")
        if pre_transform is not None:
            H = H @ pre_transform
        out[idx] = H.transpose(0, 2, 1) @ H
    return out


def laplacian_from_outputs(
    spec: ArraySpec, pre_transform: np.ndarray | None = None
) -> np.ndarray:
    """Weights Q_ij = C_ij^T C_ij, optionally with C_ij replaced by C_ij @ pre_transform.

    The pre-transform hook covers the reduced Laplacian built from
    H_ij = C_ij U on the marginal subspace basis U.
    """
    Q = dict(zip(spec.C, output_weights(list(spec.C.values()), spec.n, pre_transform)))
    n = spec.n if pre_transform is None else pre_transform.shape[1]
    return build_laplacian(Q, spec.q, n=n)
