"""spikescore: dual-form PCA for d >> n data and score-asymptotics checks.

The package has four layers:

- ``spike_model``: spiked-covariance populations, given as plain numbers
  (each spike is scale * d ** exponent, exponent 0 for a fixed spike, and
  the mean is one float times the all-ones vector), O(dn) sample generation
  from one SFC64 draw (``generate_sample``, with ``spike_projection``, the
  projection P = X'U_m on the spike directions), and ``frame_sample``,
  which draws a sample in a random frame K of R^n at O(n m) whatever d
  is: X'X = K A K' in law, with the tail Gram a bidiagonal factor
  (Dumitriu & Edelman's Laguerre model).
- ``pca_engine``: sample eigenvalues and score vectors, from the dense
  sample through its n x n Gram (``dual_pca``, which holds that one n x n
  array), or from a frame sample (``frame_pca``, Lanczos on A at O(n m)
  per step, with the score vectors and population scores carried back by
  K); loadings are never stored.
  A sweep replicate runs ``frame_sample`` -> ``frame_pca`` at every n and d.
- ``asymptotics``: score-ratio tables, the exact three-term ratio
  decomposition, and ``spike_diagnostics``, which turns the overlap matrix
  of ``projection_overlaps`` into eigenvalue ratios, angles, cross-spike
  overlaps, and tail leakage.
- ``limit_dist`` and ``runner``: the sqrt(n / chi2_n) rescaling law,
  Kolmogorov-Smirnov testing, and reproducible Monte Carlo sweeps.
"""

__version__ = "0.12.0"

from .spike_model import (
    CanonicalAxes,
    DataMatrix,
    FrameSample,
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    basis_vectors,
    frame_sample,
    generate_sample,
    population_projection,
    projection_scores,
    spike_projection,
)
from .pca_engine import (
    PcaResult,
    dual_pca,
    frame_pca,
    load_matrix_csv,
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
    "DataMatrix",
    "FrameSample",
    "RandomOrthogonal",
    "SpikeProfile",
    "SpikeSpec",
    "basis_vectors",
    "frame_sample",
    "generate_sample",
    "population_projection",
    "projection_scores",
    "spike_projection",
    "PcaResult",
    "dual_pca",
    "frame_pca",
    "load_matrix_csv",
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
