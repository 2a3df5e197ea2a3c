"""Sample PCA through the n x n Gram matrix, or through a sample's random frame.

For d >> n data the d x d sample covariance is never formed: eigenvalues
and score vectors come from the Gram matrix X'X / divisor.  ``dual_pca``
forms the Gram of a d x n sample, divides it in place and decomposes it,
so below rank n the Gram is the one n x n array it holds.  ``frame_pca``
decomposes a sample drawn in a random frame (``spike_model.frame_sample``,
X'X = K A K' in law): every sweep replicate takes that route, Lanczos on
v -> A v at O(n m) per step, so no n x n array is formed at any n.
No loading vector is stored: where a diagnostic needs the unit loading
u_hat_j = X v_j / ||X v_j||, it divides by ``loading_norms``, the one
place that holds the norm sqrt(divisor) sqrt(eigenvalue) and the
zero-eigenvalue cut.
Finiteness is read from the Gram diagonal, or from the trace of A, so no
d x n mask is built.
When fewer than n components are wanted, the leading eigenpairs come from
implicitly restarted Lanczos (ARPACK, through
``scipy.sparse.linalg.eigsh``) with a fixed start vector, so the whole
n x n matrix is never tridiagonalized and the result is reproducible.  The
Krylov size follows the wanted rank (``_leading_pairs``: 2 rank + 1
vectors, not ``eigsh``'s default of at least 20).  In the spiked spectra
the sweeps draw, the m spike eigenvalues sit far above the bulk, so a few
vectors hold them to machine precision: a rank-2 growing-n replicate's
eigensolve takes 6 operator steps, not 21.  All n components, or those of
a zero Gram, come from ``np.linalg.eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .spike_model import FrameSample, _integer, _real

# Eigenvalues below this fraction of the top one are treated as exactly
# zero by ``loading_norms``, to avoid dividing by a rounding artifact.
ZERO_EIGENVALUE_RTOL = 1e-12

# The one refusal of a sample with a NaN or Inf entry or an overflowing Gram.
_NON_FINITE = "the sample contains NaN or Inf entries, or its Gram overflows"

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
    return _real(divisor, "divisor")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the first nonzero component of each is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > _SIGN_EPS)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def _resolve_rank(rank: Optional[int], n: int, d: int) -> int:
    max_rank = min(n, d)
    if rank is None:
        return max_rank
    rank = _integer(rank, "rank")
    if not 1 <= rank <= max_rank:
        raise ValueError(f"rank must be in [1, {max_rank}], got {rank}")
    return rank


def _leading_pairs(a, n: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``rank`` largest eigenpairs of the symmetric n x n ``a``, an array
    or a ``LinearOperator``, in ascending order.

    Lanczos (``eigsh``, to machine precision) starts from the fixed vector
    ``default_rng(0).uniform(-1, 1, n)``, so repeated calls are bitwise
    equal.  The start vector is not ``ones``, a null vector of a centered
    Gram, from which the Krylov space would grow out of rounding noise.

    The Krylov size follows the wanted rank: min(n, 2 rank + 1) vectors, not
    ``eigsh``'s default max(2 rank + 1, 20), whose first factorization
    ARPACK always completes.  Where the wanted eigenvalues sit
    far above the rest, as the spikes of every sweep replicate do (the
    hdlss guard requires d / lambda_m < 1, and growing-n requires
    d / (n lambda_m) to shrink), that small space already holds them to
    machine precision: on a growing-n sample at rank 2 the solve takes 6
    operator steps in place of 21, and its eigenvalues agree with the
    default's to 4e-16 relative.  The trade is a flat spectrum with no
    spike, where the smaller space restarts more often: pure noise at
    n = d = 400 took 244 operator steps against 128 at rank 2, and 582
    against 81 at rank 1.
    """
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(0).uniform(-1, 1, n)
    w, v = eigsh(a, k=rank, which="LA", v0=v0, tol=0, ncv=min(n, 2 * rank + 1))
    order = np.argsort(w)
    return w[order], v[:, order]


def _result(w: np.ndarray, v: np.ndarray, div: float, centered: bool, d: int) -> PcaResult:
    """The PcaResult of ascending eigenpairs: largest first, eigenvalues
    clipped at zero, signs fixed."""
    return PcaResult(
        sample_eigenvalues=np.maximum(w[::-1], 0.0),
        score_vectors=_fix_signs(v[:, ::-1]),
        divisor=div,
        centered=centered,
        n=v.shape[0],
        d=d,
    )


def dual_pca(
    x: np.ndarray,
    *,
    center: bool = False,
    divisor: Union[str, int, float] = "n",
    rank: Optional[int] = None,
) -> PcaResult:
    """Eigenvalues and scores of the sample covariance, via the Gram matrix.

    ``x`` is d x n with one observation per column, and is left as it is.
    The eigenpairs of G = X_c'X_c / divisor (X_c = X, or X with its row
    means taken out when ``center``) give the sample eigenvalues and score
    vectors; the nonzero eigenvalues agree with those of X_cX_c' / divisor.
    ``rank`` limits how many leading components are retained (default
    min(n, d)).

    G is formed as one ``X_c.T @ X_c`` product, which numpy computes as a
    mirrored triangle, so it is exactly symmetric; it is divided in place,
    so the Gram is the one n x n array formed here (at rank n, ``eigh``
    adds its eigenvectors and workspace).  With ``rank < n`` the
    ``rank`` largest eigenpairs come from Lanczos (``_leading_pairs``) on
    G.  With ``rank == n``, or for a zero Gram, the spectrum comes from
    ``np.linalg.eigh``.  A single-vector Krylov method can miss a copy of
    an exactly repeated eigenvalue, and where it meets an invariant
    subspace early (e.g. a multiple of the identity) ARPACK restarts from a
    random vector; generic (noisy) data has neither.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be a 2-d matrix, got shape {x.shape}")
    d, n = x.shape
    rank = _resolve_rank(rank, n, d)
    div = _resolve_divisor(divisor, n)

    # A NaN or Inf in column i makes G_ii, a sum of squares that cannot
    # cancel, non-finite, and so does an overflowing Gram: the diagonal is
    # checked in place of a d x n mask, and the warnings are left to it.
    with np.errstate(invalid="ignore", over="ignore"):
        xc = x - x.mean(axis=1, keepdims=True) if center else x
        g = xc.T @ xc
        g /= div
    if not np.all(np.isfinite(np.diagonal(g))):
        raise ValueError(_NON_FINITE)

    # g is positive semidefinite, so a zero trace means g = 0 (all-zero or,
    # centered, constant data): Lanczos cannot start there.
    if rank < n and np.trace(g) > 0:
        w, v = _leading_pairs(g, n, rank)
    else:
        w, v = np.linalg.eigh(g)
        w, v = w[n - rank :], v[:, n - rank :]
    return _result(w, v, div, center, d)


def frame_pca(frame: FrameSample) -> tuple[PcaResult, np.ndarray]:
    """The m leading eigenpairs of a sample drawn in a random frame, and its
    population scores S, both in the observation frame.

    ``frame`` is a ``spike_model.FrameSample``: X'X = K A K' in law, with A
    an O(n m) operator.  Lanczos (``_leading_pairs``) finds the m largest
    eigenpairs (w, V~) of A / n, and one call of ``frame.to_observation``
    carries [V~ | S~] to [V | S] by the same K, so the result is that of an
    uncentered ``dual_pca`` of the sample with divisor n, in law, and
    ``_fix_signs`` acts in the observation frame.  A non-finite or zero
    trace of A is refused with ``dual_pca``'s ValueError: the trace bounds
    every entry of A and every Krylov vector, and Lanczos cannot start from
    A = 0.
    """
    n, m = frame.n, frame.spikes.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        trace = frame.trace()
    if not 0.0 < trace < np.inf:
        raise ValueError(_NON_FINITE)
    from scipy.sparse.linalg import LinearOperator

    op = LinearOperator((n, n), matvec=lambda v: frame.matvec(v) / n, dtype=float)
    w, v = _leading_pairs(op, n, m)
    rotated = frame.to_observation(np.hstack([v, frame.spikes]))
    return _result(w, rotated[:, :m], float(n), False, frame.d), rotated[:, m:]


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


def load_matrix_csv(path: Union[str, Path], header: bool = False) -> np.ndarray:
    """Read a dense matrix from CSV: rows are dimensions, columns samples."""
    x = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1 if header else 0)
    return np.asarray(x, dtype=float)
