"""spikescore: dual-form PCA for d >> n data and score-asymptotics checks.

The package has four layers:

- ``spike_model``: spiked-covariance populations, O(dn) sample generation
  (``generate_sample``, with ``spike_projection``, the projection
  P = X'U_m on the spike directions), ``sample_gram``, which assembles
  the sample's Gram X'X and P in n-space from sums over its column
  blocks, without holding it, and ``wishart_factor``, which draws an
  n x min(d, n + m + 1) factor F of the sample, FF' = X'X and
  F[:, :m] = P in their joint law, at a cost free of d (Bartlett's
  decomposition).
- ``pca_engine``: sample eigenvalues and score vectors, from the sample
  (``dual_pca``, which runs Lanczos on v -> X'(X v) and forms no Gram
  where ``_operator_is_cheaper`` finds that route cheaper, as for n large
  against d) or from the n x n Gram (``gram_pca``); loadings are never
  stored.
  A sweep replicate runs ``wishart_factor`` -> ``dual_pca`` at every d.
- ``asymptotics``: score-ratio tables, the exact three-term ratio
  decomposition, and ``spike_diagnostics``, which turns the overlap matrix
  of ``projection_overlaps`` into eigenvalue ratios, angles, cross-spike
  overlaps, and tail leakage.
- ``limit_dist`` and ``runner``: the sqrt(n / chi2_n) rescaling law,
  Kolmogorov-Smirnov testing, and reproducible Monte Carlo sweeps.
"""

__version__ = "0.4.0"

from .spike_model import (
    CanonicalAxes,
    ConstantMean,
    DataMatrix,
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    ZeroMean,
    basis_vectors,
    generate_sample,
    projection_scores,
    sample_gram,
    spike_projection,
    wishart_factor,
)
from .pca_engine import (
    PcaResult,
    dual_pca,
    gram_pca,
    load_matrix_csv,
    sample_score_matrix,
)
from .asymptotics import (
    RatioDecomposition,
    ScoreRatioTable,
    comparable_sample_scores,
    projection_overlaps,
    ratio_decomposition,
    score_ratio_table,
    spike_diagnostics,
)
from .limit_dist import (
    KsOutcome,
    RLaw,
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
    "RandomOrthogonal",
    "SpikeProfile",
    "SpikeSpec",
    "ZeroMean",
    "basis_vectors",
    "generate_sample",
    "projection_scores",
    "sample_gram",
    "spike_projection",
    "wishart_factor",
    "PcaResult",
    "dual_pca",
    "gram_pca",
    "load_matrix_csv",
    "sample_score_matrix",
    "RatioDecomposition",
    "ScoreRatioTable",
    "comparable_sample_scores",
    "projection_overlaps",
    "ratio_decomposition",
    "score_ratio_table",
    "spike_diagnostics",
    "KsOutcome",
    "RLaw",
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
