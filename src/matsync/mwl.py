"""Matrix-weighted Laplacian assembly; every function returns plain arrays.

laplacian_blocks is the one layout of L_W: its q diagonal blocks and one
block per off-diagonal edge.  Every dense matrix-weighted Laplacian of the
package, and the closed loop's dense array, is scatter_blocks of such a
block list.  With symmetric PSD weights the result is symmetric PSD; the
stacked all-ones directions are in the null space even for asymmetric
weights.
"""

from __future__ import annotations

import numpy as np

from .array_model import ArraySpec
from .errors import DimensionMismatch


def laplacian_blocks(pairs: np.ndarray, W: np.ndarray, q: int):
    """L_W of the (E, n, n) weights W on the (E, 2) pairs of a spec's edge
    table as (rows, cols, blocks), blocks[k] being block (rows[k], cols[k]):
    the q diagonal blocks first, then one per off-diagonal pair in edge
    order.  Block (i, i) is 0.0 plus agent i's W_ij in edge order (one
    np.add.at over flat entries, where it is fastest), block (i, j) is
    0.0 - W_ij, and diagonal pairs are skipped."""
    n = W.shape[-1]
    if not (off := pairs[:, 0] != pairs[:, 1]).all():
        pairs, W = pairs[off], W[off]
    i, j = pairs.T
    blocks = np.zeros((q + len(W), n, n))
    np.add.at(blocks[:q].reshape(-1), ((i * n * n)[:, None] + np.arange(n * n)).ravel(), W.reshape(-1))
    np.subtract(0.0, W, out=blocks[q:])
    d = np.arange(q)
    return np.concatenate((d, i)), np.concatenate((d, j)), blocks


def scatter_blocks(rows, cols, blocks, q, fill=None) -> np.ndarray:
    """The qn x qn array of block (rows[k], cols[k]) = blocks[k], with the
    n x n fill in every other block (0.0 without one)."""
    n = blocks.shape[-1]
    M = np.zeros((q * n, q * n)) if fill is None else np.tile(fill, (q, q))
    M.reshape(q, n, q, n).transpose(0, 2, 1, 3)[rows, cols] = blocks  # a view: [i, j] is block (i, j)
    return M


def assemble_block_laplacian(pairs: np.ndarray, W: np.ndarray, q: int) -> np.ndarray:
    """The qn x qn matrix-weighted Laplacian of laplacian_blocks, 0.0 off its
    blocks: bit-equal to subtracting and adding the blocks one at a time."""
    return scatter_blocks(*laplacian_blocks(pairs, W, q), q)


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
