"""Sample PCA through the n x n Gram matrix.

For d >> n data the d x d sample covariance is never formed: eigenvalues
and score vectors come from the Gram matrix X'X / divisor.  ``gram_pca``
decomposes a Gram it is given, so a caller that assembles X'X from sums
over column blocks (a sweep past one block) never holds X; ``dual_pca``
forms the Gram from X and hands it to ``gram_pca``, so both give the same
bits from the same Gram.  No loading vector is stored: where a diagnostic
needs the unit loading u_hat_j = X v_j / ||X v_j||, it divides by
``loading_norms``, the one place that holds the norm
sqrt(divisor) sqrt(eigenvalue) and the zero-eigenvalue cut.
Finiteness is read from the Gram diagonal, so no d x n mask is built.
``gram_pca`` decomposes (G + G') / (2 divisor), the symmetric part of the
Gram it is given, and holds one n x n array beyond its input.
When fewer than n components are wanted, the leading eigenpairs of the
Gram come from implicitly restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) with a fixed start vector, so the whole
n x n Gram is never tridiagonalized and the result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

# Eigenvalues below this fraction of the top one are treated as exactly
# zero by ``loading_norms``, to avoid dividing by a rounding artifact.
ZERO_EIGENVALUE_RTOL = 1e-12

# Absolute threshold for "first nonzero component" in the sign convention;
# score vectors have unit norm, so any real entry is far above this.
_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class PcaResult:
    """Sample eigen-structure from the dual (Gram) route.

    ``sample_eigenvalues`` is non-increasing with r = rank retained entries.
    ``score_vectors`` (n x r) holds the orthonormal score vectors, all the
    n-space diagnostics need; the d x r loadings are not kept.  ``divisor``
    is the actual number used in the covariance normalization (n or n - 1).
    """

    sample_eigenvalues: np.ndarray
    score_vectors: np.ndarray
    divisor: float
    centered: bool
    n: int
    d: int

    @property
    def rank(self) -> int:
        return int(self.sample_eigenvalues.shape[0])


def _resolve_divisor(divisor: Union[str, int, float], n: int) -> float:
    if divisor in ("n", None):
        return float(n)
    if divisor == "n-1":
        if n < 2:
            raise ValueError("divisor 'n-1' needs at least two samples")
        return float(n - 1)
    value = float(divisor)
    if value <= 0:
        raise ValueError(f"divisor must be positive, got {divisor}")
    return value


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the first nonzero component of each is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > _SIGN_EPS)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def dual_pca(
    x: np.ndarray,
    *,
    center: bool = False,
    divisor: Union[str, int, float] = "n",
    rank: Optional[int] = None,
) -> PcaResult:
    """Eigenvalues and scores of the sample covariance, via the Gram matrix.

    ``x`` is d x n with one observation per column.  The eigenpairs of
    G = X'X / divisor (after optional column centering) give the sample
    eigenvalues and score vectors; the nonzero eigenvalues agree with those
    of XX' / divisor.  ``rank`` limits how many leading components are
    retained (default min(n, d)).  The Gram is formed here and decomposed
    by ``gram_pca``, which documents the eigensolvers.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be a 2-d matrix, got shape {x.shape}")
    # Overflow and NaN are left to gram_pca's check of the Gram diagonal.
    with np.errstate(invalid="ignore", over="ignore"):
        xc = x - x.mean(axis=1, keepdims=True) if center else x
        gram = xc.T @ xc
    return gram_pca(gram, x.shape[0], divisor=divisor, rank=rank, centered=center)


def gram_pca(
    gram: np.ndarray,
    d: int,
    *,
    divisor: Union[str, int, float] = "n",
    rank: Optional[int] = None,
    centered: bool = False,
) -> PcaResult:
    """Eigenvalues and score vectors from the n x n Gram X_c'X_c of a d x n sample.

    ``gram`` is not yet divided; ``centered`` records whether the sample
    was centered before it was formed.  This is the eigen-part of
    ``dual_pca``, shared with sweep replicates, which take their Gram from
    ``spike_model.sample_gram``, so both give the same bits from the same
    Gram.

    The matrix decomposed is (G + G') / (2 divisor), formed as one n x n
    array beyond ``gram``, which is left as it is.  The Grams a sweep
    forms are exactly symmetric (one ``A @ A.T`` product, which numpy
    computes as a mirrored triangle, or a sum of such products and other
    symmetric terms), so for them it is G / divisor to the bit; a
    non-symmetric Gram gets its symmetric part.
    The sum is formed before the division, so a Gram entry above half the
    float maximum overflows and is refused by the check of the diagonal
    (an entry of a positive semidefinite Gram is at most the larger of its
    two diagonal entries).

    With ``rank < n`` the ``rank`` largest eigenpairs come from Lanczos
    (``eigsh``, to machine precision) started from the fixed vector
    ``default_rng(0).uniform(-1, 1, n)``, so repeated calls are bitwise
    equal.  The start vector is not ``ones``, a null vector of a centered
    Gram, from which the Krylov space would grow out of rounding noise.
    With ``rank == n``, or for a zero Gram, the spectrum comes from
    ``np.linalg.eigh``.  A single-vector Krylov method can miss a copy of
    an exactly repeated eigenvalue, and where it meets an invariant
    subspace early (e.g. a multiple of the identity) ARPACK restarts from a
    random vector; generic (noisy) data has neither.
    """
    n = gram.shape[0]
    max_rank = min(n, d)
    if rank is None:
        rank = max_rank
    if not 1 <= rank <= max_rank:
        raise ValueError(f"rank must be in [1, {max_rank}], got {rank}")
    div = _resolve_divisor(divisor, n)

    # A NaN or Inf in column i makes G_ii, a sum of squares that cannot
    # cancel, non-finite, and so does an overflowing Gram or sum G + G':
    # the diagonal is checked in place of a d x n mask, and the warnings
    # are left to it.  The sum takes the one n x n allocation and is
    # divided in place; on a symmetric Gram (2x) / (2 div) rounds exactly
    # as x / div.
    with np.errstate(invalid="ignore", over="ignore"):
        g = np.add(gram, gram.T)
        g /= 2.0 * div
    if not np.all(np.isfinite(np.diagonal(g))):
        raise ValueError("the sample contains NaN or Inf entries, or its Gram overflows")

    # g is positive semidefinite, so a zero trace means g = 0 (all-zero or,
    # centered, constant data): Lanczos cannot start there.
    if rank < n and np.trace(g) > 0:
        from scipy.sparse.linalg import eigsh

        v0 = np.random.default_rng(0).uniform(-1, 1, n)
        w, v = eigsh(g, k=rank, which="LA", v0=v0, tol=0)
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    else:
        w, v = np.linalg.eigh(g)
        w, v = w[n - rank :], v[:, n - rank :]
    w = w[::-1]
    v = v[:, ::-1]
    w = np.maximum(w, 0.0)
    v = _fix_signs(v)
    return PcaResult(
        sample_eigenvalues=w,
        score_vectors=v,
        divisor=div,
        centered=centered,
        n=n,
        d=d,
    )


def loading_norms(result: PcaResult) -> np.ndarray:
    """Norms ||X_c v_j|| = sqrt(divisor) sqrt(w_j) that turn scores into loadings.

    The unit loading of component j is X_c v_j / norms[j], and its overlap
    with a direction u is v_j'(X_c'u) / norms[j].  Entries are NaN where the
    eigenvalue is numerically zero (w_j <= ZERO_EIGENVALUE_RTOL * w_0), so
    dividing by them marks those loadings and overlaps absent.
    """
    w = result.sample_eigenvalues
    zero_tol = ZERO_EIGENVALUE_RTOL * w[0] if w[0] > 0 else 0.0
    valid = w > zero_tol
    norms = np.full(w.shape, np.nan)
    norms[valid] = np.sqrt(result.divisor) * np.sqrt(w[valid])
    return norms


def sample_score_matrix(result: PcaResult, m: int) -> np.ndarray:
    """First m score vectors as an n x m matrix (pure extraction).

    Columns have unit Euclidean norm.  Raises if m exceeds the retained rank.
    """
    if not 1 <= m <= result.rank:
        raise ValueError(f"m must be in [1, {result.rank}], got {m}")
    return result.score_vectors[:, :m].copy()


def load_matrix_csv(path: Union[str, Path], header: bool = False) -> np.ndarray:
    """Read a dense matrix from CSV: rows are dimensions, columns samples."""
    x = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1 if header else 0)
    return np.asarray(x, dtype=float)
