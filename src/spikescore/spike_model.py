"""Spiked-covariance population models and sample generation.

The population covariance is described by its eigen-structure only: a short
list of dominant eigenvalues (the spikes), a constant tail level, and a
choice of eigenbasis.  Samples are drawn without ever materializing the
d x d covariance, so dimensions in the millions stay cheap: generation is
row-scaling of an n x d standard-normal draw, optionally rotated by a
product of Householder reflectors.  That rotation is held in compact-WY
form, I - W'TW, and applied as two matrix products; one frame, of
m + 20 reflectors of length d, stays cached per process, so a sweep builds
it once per grid point.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Full latent coordinates are retained only up to this dimension; above it
# keeping an n x d float matrix per replicate defeats the O(dn) design.
DIAGNOSTIC_MAX_D = 10_000

# Extra Householder reflectors beyond the spike count, enough to scramble
# the spike directions away from the canonical axes.
_EXTRA_REFLECTORS = 20

# Domain-separation tag for the reflector RNG stream, so a basis seed can
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
    """Population eigenvectors come from a seeded random rotation.

    The rotation is a product of unit Householder reflectors drawn from
    seeded Gaussians and applied implicitly, so no d x d matrix is stored.
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
    non-increasing at this d, and m < n, m < d.
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
        resolve_eigenvalues(self)  # raises on non-monotone resolved sequence

    @property
    def m(self) -> int:
        return len(self.spikes)

    @property
    def mean_vector_value(self) -> float:
        if isinstance(self.mean, ConstantMean):
            return float(self.mean.value)
        return 0.0


@dataclass(frozen=True)
class LatentScores:
    """Standard-normal coordinates behind a generated sample.

    ``spike`` keeps the first m latent columns exactly (these are the
    population scores).  ``tail_sumsq[i]`` is sum_{k>m} z_{i,k}**2, enough
    for the noise-term bound at any d.  ``full`` is the whole n x d latent
    matrix, kept only when d <= DIAGNOSTIC_MAX_D.
    """

    spike: np.ndarray
    tail_sumsq: np.ndarray
    full: Optional[np.ndarray] = None


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

    Raises ValueError naming the offending pair if the resolved sequence is
    not non-increasing (including a spike falling below the tail level).
    """
    d = spec.d
    resolved = [p.resolve(d) for p in spec.spikes]
    for j in range(1, len(resolved)):
        if resolved[j] > resolved[j - 1]:
            raise ValueError(
                f"resolved eigenvalues out of order at d={d}: "
                f"lambda_{j} = {resolved[j - 1]:g} < lambda_{j + 1} = {resolved[j]:g}"
            )
    if resolved[-1] < spec.tail_value:
        raise ValueError(
            f"resolved eigenvalues out of order at d={d}: "
            f"lambda_{len(resolved)} = {resolved[-1]:g} < tail = {spec.tail_value:g}"
        )
    lam = np.full(d, float(spec.tail_value))
    lam[: len(resolved)] = resolved
    return lam


class _HouseholderFrame:
    """Orthogonal matrix U = H_1 H_2 ... H_k of unit reflectors, kept implicit.

    Reflector directions are unit-normalized Gaussian draws from a stream
    keyed by (seed, tag), independent of any data stream.  Row i of the
    k x d matrix ``w`` is the direction of H_i = I - 2 w_i w_i'.  The
    product is stored in compact-WY form U = I - W'TW (Schreiber & Van Loan
    1989), with T the k x k upper-triangular factor built from the Gram
    W W', so applying U or U' costs two matrix products over d x n, not k
    passes.  Frames are shared through a one-entry cache (``_frame``), so
    their arrays are read-only.
    """

    def __init__(self, seed: int, d: int, n_reflectors: int):
        ss = np.random.SeedSequence((int(seed), _BASIS_STREAM_TAG))
        rng = np.random.Generator(np.random.Philox(ss))
        w = rng.standard_normal((n_reflectors, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        gram = w @ w.T
        t = np.zeros((n_reflectors, n_reflectors))
        for i in range(n_reflectors):
            t[i, i] = 2.0
            t[:i, i] = -2.0 * (t[:i, :i] @ gram[:i, i])
        w.flags.writeable = False
        t.flags.writeable = False
        self.w = w
        self.t = t
        self.d = d

    def _reflect(self, y: np.ndarray, t: np.ndarray) -> np.ndarray:
        """y - W' t W y, with the d x n result as the only large allocation."""
        y = np.asarray(y, dtype=float)
        c = t @ (self.w @ y)
        # (c' W)' has the layout of a transposed C-order array, like the
        # generator's draw, so the subtraction walks both operands in order.
        out = (c.T @ self.w).T
        np.subtract(y, out, out=out)
        return out

    def apply(self, y: np.ndarray) -> np.ndarray:
        """U @ y for y of shape (d,) or (d, n)."""
        return self._reflect(y, self.t)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """U.T @ y for y of shape (d,) or (d, n)."""
        return self._reflect(y, self.t.T)

    def vectors(self, count: int) -> np.ndarray:
        """First `count` columns of U, as a dense (d, count) matrix."""
        e = np.zeros((self.d, count))
        e[np.arange(count), np.arange(count)] = 1.0
        return self.apply(e)


def _frame(spec: SpikeSpec) -> Optional[_HouseholderFrame]:
    """The spec's rotation, or None for the canonical basis."""
    if isinstance(spec.basis, CanonicalAxes):
        return None
    return _cached_frame(int(spec.basis.seed), spec.d, spec.m + _EXTRA_REFLECTORS)


@functools.lru_cache(maxsize=1)
def _cached_frame(seed: int, d: int, n_reflectors: int) -> _HouseholderFrame:
    # Keyed on the three ints that determine the frame, not on the spec, so
    # every replicate of a grid point (whatever its n or spikes) shares it.
    # One entry: a sweep visits grid points in order, and a frame at
    # d = 1e6 holds 22 x 1e6 doubles.
    return _HouseholderFrame(seed, d, n_reflectors)


def basis_vectors(spec: SpikeSpec, count: Optional[int] = None) -> np.ndarray:
    """Population eigenvectors u_1, ..., u_count as a dense (d, count) matrix.

    Defaults to the m spike directions.  Cheap for CanonicalAxes at any d;
    for RandomOrthogonal the columns come from the cached frame, at the cost
    of one d x count matrix product.
    """
    count = spec.m if count is None else count
    if count > spec.d:
        raise ValueError(f"count={count} exceeds d={spec.d}")
    if isinstance(spec.basis, CanonicalAxes):
        e = np.zeros((spec.d, count))
        e[np.arange(count), np.arange(count)] = 1.0
        return e
    return _frame(spec).vectors(count)


def orthogonal_matrix(spec: SpikeSpec) -> np.ndarray:
    """The full d x d eigenvector matrix U, for small-d tests only."""
    if spec.d > DIAGNOSTIC_MAX_D:
        raise ValueError(
            f"refusing to materialize a {spec.d} x {spec.d} matrix; "
            f"only supported for d <= {DIAGNOSTIC_MAX_D}"
        )
    return basis_vectors(spec, spec.d)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (tuple, list)):
        return np.random.SeedSequence(tuple(int(s) for s in seed))
    return np.random.SeedSequence(int(seed))


def generate_sample(spec: SpikeSpec, seed) -> DataMatrix:
    """Draw X = [X_1, ..., X_n] (d x n) from the spiked model.

    Each column is mean + sum_j sqrt(lambda_j) * u_j * z_{i,j} with z i.i.d.
    standard normal.  Deterministic given (spec, seed); seed may be an int,
    a tuple of ints, or a numpy SeedSequence.  The counter-based generator
    (Philox) makes replicate streams independent of execution order.
    """
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    lam = resolve_eigenvalues(spec)
    n, d, m = spec.n, spec.d, spec.m

    z = rng.standard_normal((n, d))
    spike = z[:, :m].copy()
    tail = z[:, m:]
    tail_sumsq = np.einsum("ij,ij->i", tail, tail)
    full = z.copy() if d <= DIAGNOSTIC_MAX_D else None

    z *= np.sqrt(lam)  # in place: the draw is not needed unscaled any more
    y = z.T  # (d, n); row j is sqrt(lambda_j) * z[:, j]
    frame = _frame(spec)
    x = y if frame is None else frame.apply(y)
    mu = spec.mean_vector_value
    if mu != 0.0:
        x = x + mu

    latent = LatentScores(spike=spike, tail_sumsq=tail_sumsq, full=full)
    return DataMatrix(values=x, latent=latent, spec=spec)


def population_score_matrix(data: DataMatrix) -> np.ndarray:
    """Population scores S (n x m): S[i, j] = u_j'X_i / sqrt(lambda_j).

    Computed from the actual basis vectors and data, not read back from the
    latent coordinates, so it doubles as a check of the generator: for a
    zero-mean model it reproduces latent.spike to rounding.
    """
    spec = data.spec
    lam = resolve_eigenvalues(spec)[: spec.m]
    u = basis_vectors(spec)
    x = data.values
    mu = spec.mean_vector_value
    proj = x.T @ u  # (n, m)
    if mu != 0.0:
        proj = proj - mu * u.sum(axis=0)
    return proj / np.sqrt(lam)


def replace_spec(spec: SpikeSpec, **changes) -> SpikeSpec:
    """A copy of spec with the given fields replaced (re-validated)."""
    return dataclasses.replace(spec, **changes)
