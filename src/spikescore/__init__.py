"""spikescore: dual-form PCA for d >> n data and score-asymptotics checks.

The package has four layers:

- ``spike_model``: spiked-covariance populations and O(dn) sample generation.
- ``pca_engine``: sample eigenvalues, scores, and loadings via the n x n
  Gram matrix.
- ``asymptotics``: score-ratio tables, the exact three-term ratio
  decomposition, and ``spike_diagnostics``, which turns one overlap matrix
  into eigenvalue ratios, angles, cross-spike overlaps, and tail leakage.
- ``limit_dist`` and ``runner``: the sqrt(n / chi2_n) rescaling law,
  Kolmogorov-Smirnov testing, and reproducible Monte Carlo sweeps.
"""

__version__ = "0.1.0"

from .spike_model import (
    CanonicalAxes,
    ConstantMean,
    DataMatrix,
    LatentScores,
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    ZeroMean,
    basis_vectors,
    generate_sample,
    orthogonal_matrix,
    population_score_matrix,
    resolve_eigenvalues,
)
from .pca_engine import (
    PcaResult,
    align_signs,
    dual_pca,
    load_matrix_csv,
    sample_score_matrix,
)
from .asymptotics import (
    RatioDecomposition,
    ScoreRatioTable,
    angle_to_population,
    comparable_sample_scores,
    cross_spike_overlap,
    eigenvalue_ratio,
    ratio_decomposition,
    score_ratio_table,
    spike_diagnostics,
    spike_overlaps,
    tail_leakage,
)
from .limit_dist import (
    KsOutcome,
    RLaw,
    chi_square_cdf,
    ks_test,
    r_cdf,
    r_quantile,
)
from .runner import (
    ExperimentConfig,
    ExperimentReport,
    ReplicateRecord,
    SpikeTemplate,
    compute_replicate,
    export_scores_scatter,
    load_config,
    parse_config,
    run_growing_n_sweep,
    run_hdlss_sweep,
)

__all__ = [
    "__version__",
    "CanonicalAxes",
    "ConstantMean",
    "DataMatrix",
    "LatentScores",
    "RandomOrthogonal",
    "SpikeProfile",
    "SpikeSpec",
    "ZeroMean",
    "basis_vectors",
    "generate_sample",
    "orthogonal_matrix",
    "population_score_matrix",
    "resolve_eigenvalues",
    "PcaResult",
    "align_signs",
    "dual_pca",
    "load_matrix_csv",
    "sample_score_matrix",
    "RatioDecomposition",
    "ScoreRatioTable",
    "angle_to_population",
    "comparable_sample_scores",
    "cross_spike_overlap",
    "eigenvalue_ratio",
    "ratio_decomposition",
    "score_ratio_table",
    "spike_diagnostics",
    "spike_overlaps",
    "tail_leakage",
    "KsOutcome",
    "RLaw",
    "chi_square_cdf",
    "ks_test",
    "r_cdf",
    "r_quantile",
    "ExperimentConfig",
    "ExperimentReport",
    "ReplicateRecord",
    "SpikeTemplate",
    "compute_replicate",
    "export_scores_scatter",
    "load_config",
    "parse_config",
    "run_growing_n_sweep",
    "run_hdlss_sweep",
]
