"""Diagnostics for the sample-vs-population score asymptotics.

Everything here quantifies how the dual-PCA output relates to the
generating population: per-cell score ratios and their common-scaling
summary, the exact three-term decomposition of a signed ratio, eigenvalue
ratios, eigenvector angles, cross-spike overlaps, and tail leakage.  The
last four come from one overlap matrix through ``spike_diagnostics``, which
the public per-index functions and the Monte Carlo runner share.

All component indices j, k are 0-based (j = 0 is the leading spike).
Inner products u_hat_j'u_k are computed in the dual form
v_j'P[:, k] / ``loading_norms``[j] whenever loadings are not stored, where
P = X'U is the data's projection on the population directions
(``projection_overlaps``), so no d-length loading vector needs to be kept
at large d, and a caller that already holds P never reads X.  The same
norms give ``ratio_decomposition`` its u_hat_j = X v_j / norms[j], so the
rule that turns a score vector into a loading lives only in ``pca_engine``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pca_engine import PcaResult, loading_norms, sample_score_matrix
from .spike_model import DataMatrix, ZeroMean, basis_vectors

DEFAULT_DENOMINATOR_GUARD = 1e-8


@dataclass(frozen=True)
class ScoreRatioTable:
    """Per-cell score ratios |sample / population| with column summaries.

    Cells whose population score fell below the denominator guard are
    excluded: NaN in ``ratios`` and listed in ``excluded``.  Columns with
    more than n/2 exclusions are degenerate and get NaN statistics.
    The relative spread is (max - min) / median over surviving cells,
    the operational measure of a common scaling across observations.
    """

    ratios: np.ndarray
    excluded: frozenset
    medians: np.ndarray
    means: np.ndarray
    rel_spreads: np.ndarray
    n_excluded: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class RatioDecomposition:
    """Exact split of one signed score ratio into its three sources.

    ``signal`` is the rescaled own-direction overlap, ``cross_spike`` the
    contribution of the other spike directions, ``noise`` the tail-direction
    sum.  ``total`` is the directly computed signed ratio, which the three
    terms reproduce to rounding.  ``noise_bound`` is the Cauchy-Schwarz
    upper bound on |noise|.
    """

    signal: float
    cross_spike: float
    noise: float
    total: float
    noise_bound: float


@dataclass(frozen=True)
class OverlapDiagnostics:
    """Per-spike diagnostics from one overlap matrix; see spike_diagnostics."""

    angles: np.ndarray
    cross_overlaps: np.ndarray
    leakage: np.ndarray
    eig_ratios: np.ndarray


def score_ratio_table(
    s_hat: np.ndarray,
    s: np.ndarray,
    guard: float = DEFAULT_DENOMINATOR_GUARD,
) -> ScoreRatioTable:
    """Tabulate |s_hat / s| cellwise with guard-based exclusion.

    ``s_hat`` and ``s`` are n x m score matrices for the same sample.
    """
    s_hat = np.asarray(s_hat, dtype=float)
    s = np.asarray(s, dtype=float)
    if s_hat.shape != s.shape:
        raise ValueError(f"shape mismatch: {s_hat.shape} vs {s.shape}")
    if s_hat.ndim != 2:
        raise ValueError(f"score matrices must be 2-d, got shape {s_hat.shape}")
    if guard <= 0:
        raise ValueError(f"guard must be positive, got {guard}")

    n, m = s.shape
    ok = np.abs(s) >= guard
    ratios = np.full((n, m), np.nan)
    np.divide(np.abs(s_hat), np.abs(s), out=ratios, where=ok)

    excluded = frozenset(zip(*np.nonzero(~ok)))
    n_excluded = (~ok).sum(axis=0)
    degenerate = n_excluded > n / 2

    medians = np.full(m, np.nan)
    means = np.full(m, np.nan)
    rel_spreads = np.full(m, np.nan)
    for j in range(m):
        if degenerate[j]:
            continue
        col = ratios[ok[:, j], j]
        medians[j] = np.median(col)
        means[j] = col.mean()
        if medians[j] > 0:
            rel_spreads[j] = (col.max() - col.min()) / medians[j]
    return ScoreRatioTable(
        ratios=ratios,
        excluded=excluded,
        medians=medians,
        means=means,
        rel_spreads=rel_spreads,
        n_excluded=n_excluded,
        degenerate=degenerate,
    )


def spike_overlaps(
    pca: PcaResult,
    basis_m: np.ndarray,
    x: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Signed inner products of sample loadings with population directions.

    Returns O with O[j, k] = u_hat_j' u_k for the retained components j and
    the columns of ``basis_m``.  Uses stored loadings when present;
    otherwise ``x`` (the matrix the PCA was computed from) is required and
    the dual form is used.  Rows with a numerically zero eigenvalue are NaN.
    """
    basis_m = np.asarray(basis_m, dtype=float)
    if basis_m.ndim != 2:
        raise ValueError(f"basis must be a (d, m) matrix, got shape {basis_m.shape}")
    if pca.loadings is not None:
        out = pca.loadings.T @ basis_m
        if pca.loading_valid is not None:
            out[~pca.loading_valid, :] = np.nan
        return out
    if x is None:
        raise ValueError("pca has no loadings; pass x for the dual-form route")
    x = np.asarray(x, dtype=float)
    if x.shape != (pca.d, pca.n):
        raise ValueError(f"x must be ({pca.d}, {pca.n}), got {x.shape}")
    xc = x - x.mean(axis=1, keepdims=True) if pca.centered else x
    return projection_overlaps(pca, xc.T @ basis_m)


def projection_overlaps(pca: PcaResult, proj: np.ndarray) -> np.ndarray:
    """Dual-form overlaps O = V'P / ``loading_norms`` from P = X'U.

    ``proj`` (n x m) projects the matrix the PCA was computed from (centered
    when ``pca.centered``) on the population directions.  Rows with a
    numerically zero eigenvalue are NaN.
    """
    return (pca.score_vectors.T @ proj) / loading_norms(pca)[:, None]


def eigenvalue_ratio(pca: PcaResult, population_eigenvalues, j: int) -> float:
    """Ratio of sample to population eigenvalue for component j."""
    lam = np.asarray(population_eigenvalues, dtype=float)
    if not 0 <= j < pca.rank:
        raise ValueError(f"j must be in [0, {pca.rank}), got {j}")
    if j >= lam.size:
        raise ValueError(f"population eigenvalue {j} not provided")
    if lam[j] <= 0:
        raise ValueError(f"population eigenvalue {j} must be positive")
    return float(pca.sample_eigenvalues[j] / lam[j])


def spike_diagnostics(
    overlaps: np.ndarray,
    population_eigenvalues,
    sample_eigenvalues,
) -> OverlapDiagnostics:
    """Angles, weighted cross overlaps, leakage and eigenvalue ratios.

    ``overlaps`` is the r x m matrix O[j, k] = u_hat_j' u_k returned by
    ``spike_overlaps``.  Sample component j is paired with population
    direction j for j < q = min(r, m): ``angles`` (q) = arccos(min(1,
    |O[j, j]|)), ``cross_overlaps`` (q x m) = sqrt(lambda_k / lambda_j)
    |O[j, k]|, and ``eig_ratios`` (q) = sample over population eigenvalue.
    ``leakage`` (r) = 1 - O[j] @ O[j] is given for every row.
    """
    o = np.asarray(overlaps, dtype=float)
    r, m = o.shape
    q = min(r, m)
    lam = np.asarray(population_eigenvalues, dtype=float)
    w = np.asarray(sample_eigenvalues, dtype=float)
    if lam.size < m or w.size < q:
        raise ValueError(
            f"need {m} population and {q} sample eigenvalues, got {lam.size} and {w.size}"
        )
    # minimum propagates NaN, so a NaN overlap row gets a NaN angle rather
    # than the 0 of perfect alignment.
    angles = np.arccos(np.minimum(1.0, np.abs(np.diagonal(o[:q, :q]))))
    return OverlapDiagnostics(
        angles=angles,
        cross_overlaps=np.sqrt(lam[:m] / lam[:q, None]) * np.abs(o[:q]),
        leakage=np.array([1.0 - row @ row for row in o]),
        eig_ratios=w[:q] / lam[:q],
    )


def angle_to_population(
    pca: PcaResult,
    basis_m: np.ndarray,
    j: int,
    x: Optional[np.ndarray] = None,
) -> float:
    """Angle in [0, pi/2] between sample loading j and population direction j."""
    overlaps = spike_overlaps(pca, basis_m, x=x)
    # The angle does not depend on the eigenvalues; unit ones stand in.
    diags = spike_diagnostics(overlaps, np.ones(overlaps.shape[1]), pca.sample_eigenvalues)
    return float(diags.angles[j])


def cross_spike_overlap(
    pca: PcaResult,
    basis_m: np.ndarray,
    population_eigenvalues,
    j: int,
    k: int,
    x: Optional[np.ndarray] = None,
) -> float:
    """Eigenvalue-weighted overlap sqrt(lambda_k / lambda_j) |u_hat_j' u_k|."""
    if j == k:
        raise ValueError("cross-spike overlap needs j != k")
    overlaps = spike_overlaps(pca, basis_m, x=x)
    diags = spike_diagnostics(overlaps, population_eigenvalues, pca.sample_eigenvalues)
    return float(diags.cross_overlaps[j, k])


def tail_leakage(
    pca: PcaResult,
    basis_m: np.ndarray,
    j: int,
    x: Optional[np.ndarray] = None,
) -> float:
    """Squared mass of sample loading j outside the span of ``basis_m``.

    Computed as 1 - sum_k (u_hat_j' u_k)**2 over the m columns of
    ``basis_m``, which equals the tail sum exactly because the population
    basis is orthonormal.  May dip a hair below 0 from rounding.
    """
    overlaps = spike_overlaps(pca, basis_m, x=x)
    # The leakage does not depend on the eigenvalues; unit ones stand in.
    diags = spike_diagnostics(overlaps, np.ones(overlaps.shape[1]), pca.sample_eigenvalues)
    return float(diags.leakage[j])


def ratio_decomposition(
    data: DataMatrix,
    pca: PcaResult,
    i: int,
    j: int,
    guard: float = DEFAULT_DENOMINATOR_GUARD,
) -> RatioDecomposition:
    """Split the signed score ratio for cell (i, j) into its exact terms.

    Works at any d and on either basis, for an uncentered PCA of a
    zero-mean model.  Everything is read from the sample and the spike
    directions U_m (``basis_vectors``): U_m'x_i = sqrt(lambda) * z_i gives
    the population score z_ij = (U_m'x_i)_j / sqrt(lambda_j), and with
    U_m'u_hat_j it gives the signal and cross-spike terms.  The noise term
    is the inner product of the parts of x_i and u_hat_j outside
    span(U_m), x - U_m(U_m'x), so the three terms sum to the directly
    computed signed ratio up to rounding, and |noise| never exceeds
    ``noise_bound``, the Cauchy-Schwarz bound from the norms of those two
    tail parts.
    """
    spec = data.spec
    if not isinstance(spec.mean, ZeroMean):
        raise ValueError("ratio decomposition is defined for the zero-mean model")
    if pca.centered:
        # The terms project the raw x_i, which a centered PCA did not use.
        raise ValueError("ratio decomposition needs an uncentered PCA (center=False)")
    if not 0 <= j < min(pca.rank, spec.m):
        raise ValueError(f"j must be in [0, {min(pca.rank, spec.m)}), got {j}")
    if not 0 <= i < spec.n:
        raise ValueError(f"i must be in [0, {spec.n}), got {i}")
    norm = loading_norms(pca)[j]
    if np.isnan(norm):
        raise ValueError(f"sample eigenvalue {j} is numerically zero; ratio undefined")

    lam_hat = float(pca.sample_eigenvalues[j])
    u_hat = (data.values @ pca.score_vectors[:, j]) / norm
    block = np.column_stack((data.values[:, i], u_hat))
    u_m = basis_vectors(spec)
    coef = u_m.T @ block
    y, w = coef.T  # U_m'x_i and U_m'u_hat_j
    x_tail, u_tail = (block - u_m @ coef).T

    lam_j = float(spec.spike_eigenvalues[j])
    z_ij = float(y[j] / math.sqrt(lam_j))
    if abs(z_ij) < guard:
        raise ValueError(
            f"population score z[{i},{j}] = {z_ij:g} is below the guard {guard:g}"
        )

    scale = math.sqrt(lam_hat) * z_ij
    signal = float(math.sqrt(lam_j / lam_hat) * w[j])
    terms = y * w / scale
    cross = float(terms.sum() - terms[j])
    noise = float(x_tail @ u_tail) / scale

    total = float(math.sqrt(pca.divisor) * pca.score_vectors[i, j] / z_ij)

    noise_bound = float(np.linalg.norm(x_tail) * np.linalg.norm(u_tail)) / abs(scale)
    if abs(noise) > noise_bound * (1.0 + 1e-9) + 1e-300:
        raise ArithmeticError(
            f"noise term {noise:g} exceeds its Cauchy-Schwarz bound {noise_bound:g}"
        )
    return RatioDecomposition(
        signal=signal,
        cross_spike=cross,
        noise=noise,
        total=total,
        noise_bound=noise_bound,
    )


def comparable_sample_scores(pca: PcaResult, m: int) -> np.ndarray:
    """Sample scores on the population-score scale.

    The unit-norm score vectors are rescaled by sqrt(divisor), which makes
    them the per-observation projections on the sample directions divided
    by sqrt(sample eigenvalue) -- the normalization under which the ratio
    to the population scores has the sqrt(n / chi2_n) limit.
    """
    return math.sqrt(pca.divisor) * sample_score_matrix(pca, m)
