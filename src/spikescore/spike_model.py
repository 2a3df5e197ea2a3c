"""Spiked-covariance population models and sample generation.

The population covariance is described by its eigen-structure only: a short
list of dominant eigenvalues (the spikes), a constant tail level, and a
choice of eigenbasis.  Only the m spike directions U_m are ever held,
since the covariance is tau I + U_m (Lambda_m - tau I) U_m'; the d x d
covariance is never formed, so dimensions in the millions stay cheap.  On
the canonical axes generation is row-scaling of an n x d standard-normal
draw.  On a random basis U_m is the Q factor of a seeded d x m Gaussian,
cached per process so a sweep builds it once per grid point, and the draw
is multiplied by the symmetric square root of the covariance,
sqrt(tau) I + U_m (Lambda_m^{1/2} - sqrt(tau) I) U_m': an isotropic
scaling in place plus a rank-m correction, added to the draw in column
blocks so the sampler holds one n x d array.

Each replicate projects the sample on the spike directions once:
``spike_projection`` gives P = X'U_m (n x m), a row slice on the canonical
basis and one product with U_m otherwise, and the population scores
(``projection_scores``) and the sample-direction overlaps are both taken
from that P.

Generation keeps the sample and the latent spike coordinates, nothing else:
every other diagnostic reads the sample itself, so no second n x d array
is held per replicate at any d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Largest d at which ``orthogonal_matrix`` materializes the d x d basis.
DIAGNOSTIC_MAX_D = 10_000

# Domain-separation tag for the basis RNG stream, so a basis seed can
# never collide with a (master_seed, grid, replicate) data stream.
_BASIS_STREAM_TAG = 0x9E3779B9


@dataclass(frozen=True)
class SpikeProfile:
    """One spike eigenvalue, either a power law in d or a fixed literal.

    A power-law spike resolves to ``scale * d ** exponent`` at a concrete
    dimension d; a literal spike resolves to ``literal`` regardless of d.
    Exactly one of the two forms must be given.
    """

    scale: Optional[float] = None
    exponent: Optional[float] = None
    literal: Optional[float] = None

    def __post_init__(self) -> None:
        is_power = self.scale is not None or self.exponent is not None
        is_literal = self.literal is not None
        if is_power and is_literal:
            raise ValueError("spike must be power-law or literal, not both")
        if is_power:
            if self.scale is None or self.exponent is None:
                raise ValueError("power-law spike needs both scale and exponent")
            if self.scale <= 0:
                raise ValueError(f"spike scale must be positive, got {self.scale}")
            if self.exponent < 0:
                raise ValueError(f"spike exponent must be >= 0, got {self.exponent}")
        elif is_literal:
            if self.literal <= 0:
                raise ValueError(f"literal spike must be positive, got {self.literal}")
        else:
            raise ValueError("spike must specify either (scale, exponent) or literal")

    @classmethod
    def power(cls, scale: float, exponent: float) -> "SpikeProfile":
        return cls(scale=scale, exponent=exponent)

    @classmethod
    def fixed(cls, value: float) -> "SpikeProfile":
        return cls(literal=value)

    def resolve(self, d: int) -> float:
        """Concrete eigenvalue at dimension d."""
        if self.literal is not None:
            return float(self.literal)
        return float(self.scale) * float(d) ** float(self.exponent)


@dataclass(frozen=True)
class CanonicalAxes:
    """Population eigenvectors are the canonical axes e_1, ..., e_d."""


@dataclass(frozen=True)
class RandomOrthogonal:
    """Population eigenvectors come from a seeded uniformly random basis.

    The spike directions U_m are the Q factor of a d x m standard-normal
    draw from a stream keyed by ``seed``, so their span is uniform over
    m-dimensional subspaces.  The tail eigenvalue is repeated, so the rest
    of the basis is any orthonormal completion; only ``orthogonal_matrix``
    builds one.
    """

    seed: int = 0


@dataclass(frozen=True)
class ZeroMean:
    """Population mean is the zero vector."""


@dataclass(frozen=True)
class ConstantMean:
    """Population mean is a constant vector (every coordinate equal)."""

    value: float = 0.0


BasisChoice = Union[CanonicalAxes, RandomOrthogonal]
MeanChoice = Union[ZeroMean, ConstantMean]


@dataclass(frozen=True)
class SpikeSpec:
    """A concrete spiked population model at sample size n and dimension d.

    ``spikes`` holds the m dominant eigenvalues (m = len(spikes)); every
    remaining eigenvalue equals ``tail_value``.  Resolved eigenvalues must be
    non-increasing at this d, and m < n, m < d; a ValueError names the
    offending pair otherwise (including a spike falling below the tail).
    """

    spikes: tuple[SpikeProfile, ...]
    n: int
    d: int
    tail_value: float = 1.0
    basis: BasisChoice = CanonicalAxes()
    mean: MeanChoice = ZeroMean()

    def __post_init__(self) -> None:
        object.__setattr__(self, "spikes", tuple(self.spikes))
        if len(self.spikes) < 1:
            raise ValueError("at least one spike is required")
        if self.tail_value <= 0:
            raise ValueError(f"tail_value must be positive, got {self.tail_value}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be positive, got n={self.n}, d={self.d}")
        m = len(self.spikes)
        if m >= self.n:
            raise ValueError(f"spike count m={m} must be < n={self.n}")
        if m >= self.d:
            raise ValueError(f"spike count m={m} must be < d={self.d}")
        values = [*self.spike_eigenvalues, self.tail_value]
        names = [f"lambda_{k}" for k in range(1, m + 1)] + ["tail"]
        for j in range(1, m + 1):
            if values[j] > values[j - 1]:
                raise ValueError(
                    f"resolved eigenvalues out of order at d={self.d}: "
                    f"{names[j - 1]} = {values[j - 1]:g} < {names[j]} = {values[j]:g}"
                )

    @property
    def m(self) -> int:
        return len(self.spikes)

    @property
    def spike_eigenvalues(self) -> np.ndarray:
        """The m spike eigenvalues (lambda_1, ..., lambda_m) resolved at d."""
        return np.array([p.resolve(self.d) for p in self.spikes])

    @property
    def mean_vector_value(self) -> float:
        if isinstance(self.mean, ConstantMean):
            return float(self.mean.value)
        return 0.0


@dataclass(frozen=True)
class LatentScores:
    """Standard-normal coordinates behind a generated sample.

    ``spike`` (n x m) keeps the latent coordinates on the spike directions,
    G'U_m for the standard-normal draw G (its first m columns on the
    canonical basis): these are the population scores, the reference
    ``population_score_matrix`` is checked against.  The tail coordinates
    are not kept; where they are needed (``ratio_decomposition``) they are
    read back from the sample.
    """

    spike: np.ndarray


@dataclass(frozen=True)
class DataMatrix:
    """A d x n sample with the latent coordinates that produced it."""

    values: np.ndarray
    latent: LatentScores
    spec: SpikeSpec

    def __post_init__(self) -> None:
        d, n = self.values.shape
        if (d, n) != (self.spec.d, self.spec.n):
            raise ValueError(
                f"values shape {self.values.shape} does not match spec "
                f"(d={self.spec.d}, n={self.spec.n})"
            )


def resolve_eigenvalues(spec: SpikeSpec) -> np.ndarray:
    """Concrete population eigenvalues (lambda_1, ..., lambda_d) at spec.d.

    A d-length vector; code that needs only the spikes reads
    ``spec.spike_eigenvalues``, which stays cheap at any d.
    """
    lam = np.full(spec.d, float(spec.tail_value))
    lam[: spec.m] = spec.spike_eigenvalues
    return lam


def _basis_draw(seed: int, d: int, m: int) -> np.ndarray:
    """The d x m standard-normal block whose Q factor is the spike basis."""
    ss = np.random.SeedSequence((int(seed), _BASIS_STREAM_TAG))
    return np.random.Generator(np.random.Philox(ss)).standard_normal((d, m))


@functools.lru_cache(maxsize=1)
def _cached_spike_basis(seed: int, d: int, m: int) -> np.ndarray:
    # Keyed on the three ints that determine U_m, not on the spec, so every
    # replicate of a grid point (whatever its n or spikes) shares it.  One
    # entry: a sweep visits grid points in order.  Shared, so read-only.
    u = np.linalg.qr(_basis_draw(seed, d, m))[0]
    u.flags.writeable = False
    return u


def _spike_basis(spec: SpikeSpec) -> Optional[np.ndarray]:
    """The spike directions U_m (d x m), or None on the canonical axes."""
    if isinstance(spec.basis, CanonicalAxes):
        return None
    return _cached_spike_basis(int(spec.basis.seed), spec.d, spec.m)


def basis_vectors(spec: SpikeSpec) -> np.ndarray:
    """The m spike directions U_m = [u_1, ..., u_m] as a dense (d, m) matrix.

    Cheap for CanonicalAxes at any d.  For RandomOrthogonal it is the
    cached, read-only U_m.  The tail directions are only built by
    ``orthogonal_matrix``.
    """
    u = _spike_basis(spec)
    return np.eye(spec.d, spec.m) if u is None else u


def orthogonal_matrix(spec: SpikeSpec) -> np.ndarray:
    """The full d x d eigenvector matrix U, for small-d tests only.

    For RandomOrthogonal it is the complete QR of the draw behind U_m, so
    its first m columns equal U_m to rounding; the rest is one orthonormal
    basis of the tail, which any other would serve equally, since the tail
    eigenvalue is repeated.
    """
    if spec.d > DIAGNOSTIC_MAX_D:
        raise ValueError(
            f"refusing to materialize a {spec.d} x {spec.d} matrix; "
            f"only supported for d <= {DIAGNOSTIC_MAX_D}"
        )
    if isinstance(spec.basis, CanonicalAxes):
        return np.eye(spec.d)
    draw = _basis_draw(spec.basis.seed, spec.d, spec.m)
    return np.linalg.qr(draw, mode="complete")[0]


def generate_sample(spec: SpikeSpec, seed) -> DataMatrix:
    """Draw X = [X_1, ..., X_n] (d x n) from the spiked model.

    Each column is mean + A g_i with g_i i.i.d. standard normal and
    A = sqrt(tau) I + U_m (Lambda_m^{1/2} - sqrt(tau) I) U_m', the
    symmetric square root of the covariance, so the population scores are
    exactly U_m'g_i.  On the canonical axes A is diagonal and this is a
    row scaling.  Otherwise the draw is scaled by sqrt(tau) in place and
    the rank-m term is added block by block, so the sample is the only
    n x d array.  Deterministic given (spec, seed); seed may be an int, a
    tuple of ints, or a numpy SeedSequence.  The counter-based generator
    (Philox) makes replicate streams independent of execution order.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    m = spec.m
    root_lam = np.sqrt(spec.spike_eigenvalues)
    root_tau = np.sqrt(float(spec.tail_value))

    z = rng.standard_normal((spec.n, spec.d))
    u = _spike_basis(spec)
    if u is None:
        spike = z[:, :m].copy()
        # In place: the draw is not needed unscaled any more.
        z[:, :m] *= root_lam
        z[:, m:] *= root_tau
    else:
        spike = z @ u
        z *= root_tau
        corr = (root_lam - root_tau) * spike
        # Added in column blocks of about 256 KB, so no second n x d array
        # is held.  Widths are multiples of 64 and the last block takes the
        # remainder: a block that splits a BLAS register tile, or one column
        # (a matrix-vector product), rounds differently from the whole product.
        step = max(64, 2**15 // spec.n // 64 * 64)
        blocks = max(1, spec.d // step)
        for k in range(blocks):
            lo, hi = k * step, spec.d if k == blocks - 1 else (k + 1) * step
            z[:, lo:hi] += corr @ u[lo:hi].T
    x = z.T  # (d, n)
    mu = spec.mean_vector_value
    if mu != 0.0:
        x += mu

    return DataMatrix(values=x, latent=LatentScores(spike=spike), spec=spec)


def spike_projection(data: DataMatrix) -> np.ndarray:
    """P = X'U_m (n x m), every observation projected on the spike directions.

    On the canonical basis u_j = e_j, so P is the first m rows of X,
    transposed: every other term of the product is an exact zero, so the
    bits are those of the matrix product, and no d x m matrix is built.
    Otherwise it is one product with the cached U_m.
    """
    spec = data.spec
    u = _spike_basis(spec)
    if u is None:
        return data.values[: spec.m].T.copy()
    return data.values.T @ u


def projection_scores(spec: SpikeSpec, proj: np.ndarray) -> np.ndarray:
    """Population scores S = (P - mu 1'U_m) / sqrt(lambda) from P = X'U_m."""
    mu = spec.mean_vector_value
    if mu != 0.0:
        # 1'u_j is 1 on the canonical axes, a column sum of U_m otherwise.
        u = _spike_basis(spec)
        proj = proj - mu * (1.0 if u is None else u.sum(axis=0))
    return proj / np.sqrt(spec.spike_eigenvalues)


def population_score_matrix(data: DataMatrix) -> np.ndarray:
    """Population scores S (n x m): S[i, j] = u_j'(X_i - mean) / sqrt(lambda_j).

    Computed from the data and the spike directions through
    ``spike_projection``, not read back from ``latent.spike``, so it doubles
    as a check of the generator: it reproduces latent.spike to rounding
    (with the mean removed for a constant-mean model).
    """
    return projection_scores(data.spec, spike_projection(data))
