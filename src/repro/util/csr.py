"""Row gathers over plain numpy CSR arrays.

A CSR matrix here is just ``indptr`` plus the ``indices``/``data`` arrays
it points into.  Gathering a set of rows yields the positions of their
entries, row after row, and which gathered row each entry belongs to;
``np.bincount(owner, weights=...)`` then sums each row in CSR order,
which is the order a CSR matrix-vector product sums in.
"""

from __future__ import annotations

import numpy as np


def csr_row_gather(indptr: np.ndarray, rows) -> tuple:
    """Entry positions of ``rows`` of a CSR matrix, in CSR order.

    Returns ``(positions, owner)``: ``positions`` indexes the matrix's
    ``indices``/``data`` arrays and ``owner[k]`` is the position in
    ``rows`` of the row that entry ``k`` came from.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = np.asarray(indptr[rows], dtype=np.int64)
    counts = np.asarray(indptr[rows + 1], dtype=np.int64) - starts
    owner = np.repeat(np.arange(len(rows)), counts)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(len(owner)) + shift, owner
