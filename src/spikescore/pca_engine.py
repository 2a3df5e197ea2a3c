"""Sample PCA through the n x n Gram matrix, or through a sample's random frame.

For d >> n data the d x d sample covariance is never formed: eigenvalues
and score vectors come from the Gram matrix X'X / divisor.  ``dual_pca``
forms the Gram of a d x n sample, divides it in place and decomposes it,
so below rank n the Gram is the one n x n array it holds.  ``frame_pca``
decomposes a sample drawn in a random frame (``spike_model.frame_sample``,
X'X = K A K' in law, A = T + LL' with T tridiagonal): every sweep
replicate takes that route, at O(n m) memory, so no n x n array is formed
at any n.
No loading vector is stored: where a diagnostic needs the unit loading
u_hat_j = X v_j / ||X v_j||, it divides by ``loading_norms``, the one
place that holds the norm sqrt(divisor) sqrt(eigenvalue) and the
zero-eigenvalue cut.
Finiteness is read from the Gram diagonal, or from the trace of A, so no
d x n mask is built.

A frame's m leading eigenpairs come from a numpy-only block Lanczos
(``_block_lanczos``) started at L, whose Krylov space holds A's spike
eigenvectors.  Where the spikes stand far above T's spectrum, as in both
sweeps' regimes, 2 or 3 blocks hold them to machine precision; the frame
bounds T's spectrum (``FrameSample.tail_bounds``), so Chebyshev's bound
tells beforehand whether ``_KRYLOV_BLOCKS`` blocks suffice.  Where they do
not (a spike near the tail's edge, say), the pairs come from ARPACK.  So a
sweep in the paper's regimes never imports ``scipy.sparse.linalg``, whose
import (about 60 ms) cost more than the 12 replicates of a hdlss sweep at
n = 50, d = 1e6 (about 10 ms).  ARPACK
(``scipy.sparse.linalg.eigsh``, through ``_leading_pairs``) also takes
``dual_pca``'s leading eigenpairs when fewer than n components are wanted,
with a fixed start vector, so the whole n x n matrix is never
tridiagonalized and the result is reproducible.  Its Krylov size follows
the wanted rank (2 rank + 1 vectors, not ``eigsh``'s default of at least
20).  All n components, or those of a zero Gram, come from
``np.linalg.eigh``.
"""

from __future__ import annotations

import math
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

# Block Lanczos on a frame's operator (``_block_lanczos``) builds at most
# this many blocks of m + 1 columns, so its memory is O(n m), and a frame
# whose Chebyshev bound asks for more goes to ARPACK.  The sweeps' regimes
# take 2 to 3 blocks (4 at growing-n's n = 100, 5 near the hdlss warning's
# d / lambda_m = 0.5); a fixed spike of 10 at d = n = 2000 takes 17, where
# ARPACK is faster per solve.
_KRYLOV_BLOCKS = 6

# A block whose squared singular values span more than 1 / this ratio is
# orthonormalized through an SVD, not Cholesky QR (``_orthonormal_rows``).
_CHOLESKY_RCOND = 1e-8


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
    or a ``LinearOperator``, in ascending order.  It serves ``dual_pca``
    (the CLI's ``pca`` and ``scatter``) and the frames that ``frame_pca``
    hands over, and imports ARPACK on its first call.

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


def _gram(z: np.ndarray) -> np.ndarray:
    """z z' for a few long rows z.  ``einsum``, not ``z @ z.T``: numpy sends
    that to BLAS ``syrk``, which OpenBLAS (one thread, a 2-CPU VM) ran at
    about half the speed of ``einsum`` on a 3 x n z, n = 1e4 and 1e5."""
    return np.einsum("ij,kj->ik", z, z)


def _orthonormal_rows(z: np.ndarray, gram: np.ndarray, basis: np.ndarray,
                      floor: float, out: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the directions of the rows of z (b x n)
    longer than ``floor``, given gram = z z' and a z already orthogonal to
    the orthonormal rows of ``basis``: the first rows of ``out`` (b x n,
    which may be z itself), fewer than b where z is (numerically) rank
    deficient.

    A well-conditioned z takes Cholesky QR twice (CholQR2; Yamamoto et al.,
    ETNA 44 (2015) 306): the first pass through the eigendecomposition of
    the Gram with its diagonal scaled to one (SVQB; Stathopoulos & Wu,
    SIAM J. Sci. Comput. 23 (2002) 2165), which shows z's conditioning
    whatever the lengths of its rows, and the second through the Cholesky
    factor of the nearly orthonormal result.  Where the scaled Gram cannot
    resolve z's shortest direction (an eigenvalue below
    ``_CHOLESKY_RCOND``), or that direction may be shorter than ``floor``,
    the first pass is a thin SVD, which drops the directions below
    ``floor``, and what is kept is projected off ``basis`` once more, since
    a short direction carries the rounding of its projection at the scale
    of the long ones.
    """
    lengths = np.sqrt(np.diagonal(gram))
    short = lengths.min() <= floor
    if not short:
        s, u = np.linalg.eigh(gram / np.outer(lengths, lengths))
        short = s[0] <= _CHOLESKY_RCOND or s[0] * lengths.min() ** 2 <= floor**2
    if short:
        _, sigma, vt = np.linalg.svd(z, full_matrices=False)
        q = vt[sigma > floor]
        q -= (q @ basis.T) @ basis
    else:
        q = (u / (lengths[:, None] * np.sqrt(s))).T @ z
    return np.matmul(np.linalg.inv(np.linalg.cholesky(_gram(q))), q, out=out[: len(q)])


def _block_lanczos(tail_rows, tail_bounds: tuple[float, float], lead: np.ndarray, rank: int):
    """The ``rank`` largest eigenpairs of A = T + LL', for L = ``lead``
    (n x p) and a symmetric positive semidefinite n x n T given row-wise,
    ``tail_rows(V', out)`` writing V'T to ``out`` for a b x n V', with its
    spectrum inside ``tail_bounds`` = (lo, hi), from the block Krylov space
    of L: ascending eigenvalues and their n x rank orthonormal vectors, or
    None where that space does not hold them within ``_KRYLOV_BLOCKS``
    blocks of p columns.

    None is decided before any product with T where the blocks do not
    fill R^n and Chebyshev's bound (``_chebyshev_blocks``) asks for more:
    lambda_m(A) >= lambda_m(L'L) + lo (Weyl), and every other eigenvalue
    of A is at most hi, since LL' has rank p.  It is also returned should
    the space still pass the cap.

    Block Lanczos (Golub & Underwood 1977) with full reorthogonalization.
    The Krylov space of A from L is that of T, since LL' maps into the span
    of L, the first block Q_1: so only T is applied, and LL' enters the
    projected matrix H = Q'AQ as (Q_1 L)(Q_1 L)' on the first diagonal
    block (the later blocks are orthogonal to L).  T Q_k, for the newest
    block Q_k, is projected off every basis vector twice, its coefficients
    fill H, and what is left, Z_k, is orthonormalized
    (``_orthonormal_rows``) into the next block.  Rayleigh-Ritz
    (``np.linalg.eigh`` of H) gives Ritz pairs (theta_j, Q y_j) with
    residual A Q y_j - theta_j Q y_j = Z_k y_j', y_j' the entries of y_j on
    the newest block; the leading ``rank`` pairs are returned once each
    residual norm is at most eps theta_j, the test of ``eigsh(tol=0)``, or
    once the basis spans R^n.  A direction of Z_k shorter than eps times the
    smallest wanted Ritz value could not move any wanted residual past that
    test, so it is dropped (deflation) and a block can narrow; where
    nothing is left, the space is invariant and its Ritz pairs are exact.
    The cut must not be relative to the largest Ritz value: at d = 1e12,
    T's spread is 1e-13 of the spike, and dropping it leaves the vectors
    1e-13 off.  No random start vector is drawn, so repeated calls are
    bitwise equal.

    Vectors are the rows of one (cap + p) x n array, cap = min(n,
    ``_KRYLOV_BLOCKS`` p), so each is contiguous and the memory is O(n p):
    the basis, and below it Z_k, so that the second projection pass and the
    Gram of Z_k that orthonormalizes it are one product, and Z_k's rows
    are overwritten by the next block.
    """
    n, width = lead.shape
    cap = min(n, _KRYLOV_BLOCKS * width)
    rows = np.empty((cap + width, n))
    start = rows[:width]
    start[...] = lead.T
    gram = _gram(start)
    lo, hi = tail_bounds
    if n > cap and _chebyshev_blocks(np.linalg.eigvalsh(gram)[-rank] + lo, lo, hi) > _KRYLOV_BLOCKS:
        return None
    h = np.empty((cap, cap))
    eps = np.finfo(float).eps
    q = _orthonormal_rows(start, gram, rows[:0], eps * math.sqrt(np.trace(gram)), start)
    coupling = q @ lead
    used = 0
    while len(q) and used + len(q) <= cap:
        new, ahead = slice(used, used + len(q)), slice(used + len(q), used + 2 * len(q))
        span, z = rows[: new.stop], rows[ahead]
        tail_rows(q, z)
        coef = z @ span.T
        z -= coef @ span
        both = z @ rows[: ahead.stop].T
        again = both[:, : new.stop]
        z -= again @ span
        coef += again
        if not used:
            coef += coupling @ coupling.T
        h[new, : new.stop] = coef
        h[:used, new] = coef[:, :used].T
        used = new.stop
        theta, y = np.linalg.eigh(h[:used, :used])
        if used >= rank:
            resid = np.linalg.norm(y[new, -rank:].T @ z, axis=1)
            if used == n or np.all(resid <= eps * theta[-rank:]):
                return theta[-rank:], span.T @ y[:, -rank:]
        gram = both[:, new.stop :] - again @ again.T
        q = _orthonormal_rows(z, gram, span, eps * theta[max(used - rank, 0)], z)
    if not len(q) and used >= rank:
        return theta[-rank:], span.T @ y[:, -rank:]
    return None


def _chebyshev_blocks(low: float, lo: float, hi: float) -> float:
    """Blocks of Krylov space after which Chebyshev's bound (Kaniel-Paige-
    Saad; Saad, SIAM J. Numer. Anal. 17 (1980) 687) puts each wanted
    eigenvector within an angle of eps: 1 + acosh(1 / eps) / acosh(1 + 2 g),
    g = (low - hi) / (hi - lo), for wanted eigenvalues at least ``low`` and
    the rest of the spectrum inside [lo, hi]; inf where low <= hi.  It
    bounds block Lanczos's count from above: on frames of both sweeps and of
    fixed spikes it read 1 to 2 blocks above the count taken (3.4 against 3
    at n = 50, d = 1e6; 19 against 17 for a fixed spike of 10 at
    d = n = 2000).
    """
    if low <= hi:
        return math.inf
    if hi <= lo:
        return 1.0
    eps = np.finfo(float).eps
    return 1.0 + math.acosh(1.0 / eps) / math.acosh(1.0 + 2.0 * (low - hi) / (hi - lo))


def frame_pca(frame: FrameSample) -> tuple[PcaResult, np.ndarray]:
    """The m leading eigenpairs of a sample drawn in a random frame, and its
    population scores S, both in the observation frame.

    ``frame`` is a ``spike_model.FrameSample``: X'X = K A K' in law, with
    A = T + LL', T = tau BB' tridiagonal and L = ``frame.lead`` (n x
    (m + 1)).  The m largest eigenpairs (w, V~) of A / n come from block
    Lanczos started at L (``_block_lanczos``): an eigenvector of A with
    eigenvalue x outside T's spectrum is (xI - T)^{-1} L q, so it lies in
    L's block Krylov space.  That space is used where Chebyshev's bound,
    read with T's spectrum bounded by ``frame.tail_bounds``, holds the
    pairs within ``_KRYLOV_BLOCKS`` blocks, or where those blocks fill
    R^n.  Elsewhere (a spike near the tail's edge, say), or should the
    space still fall short, the pairs come from ``_leading_pairs`` on
    v -> A v / n, which imports ARPACK, with the start vector it always
    had.  One call of ``frame.to_observation`` carries [V~ | S~] to [V | S]
    by the same K, so the result is that of an uncentered ``dual_pca`` of
    the sample with divisor n, in law, and ``_fix_signs`` acts in the
    observation frame.  A non-finite or zero trace of A is refused with
    ``dual_pca``'s ValueError: the trace bounds every entry of A and every
    Krylov vector, and Lanczos cannot start from A = 0.
    """
    n, m = frame.n, frame.spikes.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        trace = frame.trace()
    if not 0.0 < trace < np.inf:
        raise ValueError(_NON_FINITE)
    pairs = _block_lanczos(frame.tail_rows, frame.tail_bounds(), frame.lead, m)
    if pairs is None:
        from scipy.sparse.linalg import LinearOperator

        op = LinearOperator((n, n), matvec=lambda v: frame.matvec(v) / n, dtype=float)
        w, v = _leading_pairs(op, n, m)
    else:
        w, v = pairs[0] / n, pairs[1]
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
