"""Matrix-weighted Laplacian assembly; every function returns plain arrays.

assemble_block_laplacian is the one place that lays out the blocks, and
every matrix-weighted Laplacian of the package is its array, the closed
loop's included.  With symmetric PSD weights the result is symmetric PSD;
the stacked all-ones directions are in the null space even for asymmetric
weights.
"""

from __future__ import annotations

import numpy as np

from .array_model import ArraySpec
from .errors import DimensionMismatch


def assemble_block_laplacian(pairs: np.ndarray, W: np.ndarray, q: int) -> np.ndarray:
    """The qn x qn matrix-weighted Laplacian of the (E, n, n) weights W on
    the (E, 2) pairs of a spec's edge table, as the scalar weighted Laplacian
    lays out its entries: block (i, j) is 0.0 - W_ij, block (i, i) is 0.0
    plus agent i's W_ij in edge order (one np.add.at, over L's flat entries,
    where it is fastest), every other entry is 0.0, and diagonal pairs are
    skipped.  Bit-equal to subtracting and adding the blocks one at a time."""
    n = W.shape[-1]
    N = q * n
    L = np.zeros((N, N))
    blocks = L.reshape(q, n, q, n).transpose(0, 2, 1, 3)  # a view: blocks[i, j] is block (i, j)
    off = pairs[:, 0] != pairs[:, 1]
    i, j, W = pairs[off, 0], pairs[off, 1], W[off]
    blocks[i, j] = 0.0 - W
    block = (np.arange(n)[:, None] * N + np.arange(n)).ravel()  # block (0, 0) in L.flat
    np.add.at(L.reshape(-1), ((i * (N + 1) * n)[:, None] + block).ravel(), W.reshape(-1))
    return L


def build_laplacian(Q: dict, q: int, n: int | None = None) -> np.ndarray:
    """Assemble the matrix-weighted Laplacian from edge weights Q_ij.

    Weight blocks must be square with one shared size; diagonal entries of
    the map must be absent or zero.
    """
    blocks = [np.atleast_2d(np.asarray(B, dtype=float)) for B in Q.values()]
    for (i, j), B in zip(Q, blocks):
        n = B.shape[0] if n is None else n
        if B.shape != (n, n):
            raise DimensionMismatch(
                f"weight Q_{i + 1}{j + 1} has shape {B.shape}, expected ({n}, {n})"
            )
        if i == j and np.linalg.norm(B) > 0.0:
            raise DimensionMismatch(f"diagonal weight Q_{i + 1}{i + 1} must be zero")
        if not (0 <= i < q and 0 <= j < q):
            raise DimensionMismatch(f"edge ({i + 1}, {j + 1}) outside 1..{q}")
    if n is None:
        raise DimensionMismatch("cannot infer block size from an empty weight map")
    pairs = np.array(list(Q), dtype=np.int64).reshape(-1, 2)
    return assemble_block_laplacian(pairs, np.array(blocks).reshape(-1, n, n), q)


def laplacian_from_outputs(
    spec: ArraySpec, pre_transform: np.ndarray | None = None
) -> np.ndarray:
    """Weights Q_ij = C_ij^T C_ij, optionally with C_ij replaced by C_ij @ pre_transform.

    The pre-transform hook covers the reduced Laplacian built from
    H_ij = C_ij U on the marginal subspace basis U.
    """
    W = spec.weights if pre_transform is None else spec.table.gram(spec.n, pre_transform)
    return assemble_block_laplacian(spec.table.pairs, W, spec.q)
