"""Dense test oracle for Algorithm 1's log-det step (§3.2.3).

The straightforward formulation: one ``n × n`` covariance, mask and
iterate, projected gradient ascent on the whole matrix.  The library
solves the same problem per ``NZ`` component
(:func:`repro.core.variational.solve_logdet`); this module is what that
solver is checked against.
"""

from __future__ import annotations

import numpy as np


def _is_positive_definite(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


def dense_solve_logdet(
    cov: np.ndarray,
    nz_mask: np.ndarray,
    lam: float,
    max_iter: int = 40,
    tol: float = 1e-5,
    step: float = 0.25,
) -> np.ndarray:
    """``cov`` is the masked covariance with the ``+1/3`` diagonal boost
    already applied; ``nz_mask`` marks allowed off-diagonal entries."""
    n = cov.shape[0]
    if cov.shape != (n, n) or nz_mask.shape != (n, n):
        raise ValueError("cov and nz_mask must be square and same shape")
    diag = np.diag(cov).copy()
    if (diag <= 0).any():
        raise ValueError("boosted diagonal must be positive")
    off_mask = nz_mask.astype(bool) & ~np.eye(n, dtype=bool)
    # Masked-out entries get a degenerate [0, 0] box, i.e. they stay zero.
    lower = (cov - lam) * off_mask
    upper = (cov + lam) * off_mask

    def project(x: np.ndarray) -> np.ndarray:
        off = np.clip(x, lower, upper) * off_mask
        out = off + np.diag(diag)
        return (out + out.T) / 2.0

    x = project(np.diag(diag))
    if not _is_positive_definite(x):
        # Fall back to the always-feasible diagonal start.
        x = np.diag(diag)
    for _ in range(max_iter):
        gradient = np.linalg.inv(x)
        alpha = step
        candidate = x
        while alpha > 1e-9:
            trial = project(x + alpha * gradient)
            if _is_positive_definite(trial):
                candidate = trial
                break
            alpha /= 2.0
        if np.abs(candidate - x).max() < tol:
            x = candidate
            break
        x = candidate
    return x


def dense_precision(graph, samples, lam: float, max_iter: int = 40) -> tuple:
    """Dense Algorithm 1 on ``samples``: ``(X, nz_mask)``."""
    spins = np.where(np.asarray(samples, dtype=bool), 1.0, -1.0)
    centered = spins - spins.mean(axis=0)
    cov_full = centered.T @ centered / max(len(spins), 1)
    n = graph.num_vars
    nz_mask = np.eye(n, dtype=bool)
    for i, j in graph.neighbor_pairs():
        nz_mask[i, j] = nz_mask[j, i] = True
    cov = cov_full * nz_mask
    cov[np.diag_indices(n)] = np.diag(cov_full) + 1.0 / 3.0
    return dense_solve_logdet(cov, nz_mask, lam, max_iter=max_iter), nz_mask


def dense_from_pairs(diag, rows, cols, values) -> np.ndarray:
    """The symmetric matrix with ``diag`` on the diagonal and ``values``
    at the ``(rows, cols)`` pairs, zero elsewhere."""
    x = np.diag(np.asarray(diag, dtype=float))
    x[rows, cols] = values
    x[cols, rows] = values
    return x


def dense_approx_precision(approx) -> np.ndarray:
    """A :class:`VariationalApproximation`'s precision as a dense matrix."""
    return dense_from_pairs(
        approx.precision_diag, approx.pair_rows, approx.pair_cols, approx.pair_values
    )


def dense_kept_pairs(x, nz_mask, weight_threshold: float = 1e-8) -> list:
    """Upper-triangle ``NZ`` pairs whose coupling survives the threshold."""
    rows, cols = np.nonzero(np.triu(nz_mask, k=1) & (np.abs(x) > weight_threshold))
    return list(zip(rows.tolist(), cols.tolist()))
