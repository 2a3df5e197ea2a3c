"""Spiked-covariance population models and sample generation.

The population covariance is described by its eigen-structure only: a short
list of dominant eigenvalues (the spikes), a constant tail level, and a
choice of eigenbasis.  Only the m spike directions U_m are ever held,
since the covariance is tau I + U_m (Lambda_m - tau I) U_m'; the d x d
covariance is never formed, so dimensions in the millions stay cheap.
``sample_gram`` reduces a replicate to the two n-space arrays every
diagnostic reads, the Gram X'X and P = X'U_m; ``projection_scores`` turns
P into the population scores.

On either basis the sample is the symmetric square root of the
covariance applied to an n x d standard-normal draw G, streamed as raw
blocks of ``SAMPLE_BLOCK`` columns, block k from the replicate's Philox
stream jumped k times, so the blocks can be drawn on several threads
(``set_draw_threads``) with the same bits at any count.  The stream knows
nothing of the model; its readers apply it.  On the canonical axes the
model is a row scaling; on a random basis U_m is the Q factor of a seeded
d x m Gaussian, cached per process, and the model adds a rank-m
correction that couples every column.  ``generate_sample`` lays the raw
blocks side by side and applies the model to the laid sample.
``sample_gram`` follows one rule on both bases.  Within one block it
returns the products of the generated block, bitwise.  Past one block it
sums K = GG', S = GU_m (and the row sums G1 under a non-zero mean) over
the raw blocks and assembles X'X and P in n-space, equal to those
products to rounding and with the same bits at any draw-thread count; so
past one block it never holds the sample.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Columns per block of the sample (3.3 MB at n = 50): a sweep reduces each
# block while it is still in cache, so a replicate never holds the d x n
# sample.
SAMPLE_BLOCK = 2**13

# Column blocks this process draws at once (set_draw_threads).
_draw_threads = 1

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
            if not 0 < self.scale < math.inf:
                raise ValueError(f"spike scale must be positive and finite, got {self.scale}")
            if not 0 <= self.exponent < math.inf:
                raise ValueError(f"spike exponent must be >= 0 and finite, got {self.exponent}")
        elif is_literal:
            if not 0 < self.literal < math.inf:
                raise ValueError(f"literal spike must be positive and finite, got {self.literal}")
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
        try:
            return float(self.scale) * float(d) ** float(self.exponent)
        except OverflowError:  # SpikeSpec refuses the non-finite value
            return math.inf


@dataclass(frozen=True)
class CanonicalAxes:
    """Population eigenvectors are the canonical axes e_1, ..., e_d."""


@dataclass(frozen=True)
class RandomOrthogonal:
    """Population eigenvectors come from a seeded uniformly random basis.

    The spike directions U_m are the Q factor of a d x m standard-normal
    draw from a stream keyed by ``seed``, so their span is uniform over
    m-dimensional subspaces.  The tail eigenvalue is repeated, so the rest
    of the basis is any orthonormal completion, and none is built.
    """

    seed: int = 0


@dataclass(frozen=True)
class ZeroMean:
    """Population mean is the zero vector."""


@dataclass(frozen=True)
class ConstantMean:
    """Population mean is a constant vector (every coordinate equal)."""

    value: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"mean value must be finite, got {self.value}")


BasisChoice = Union[CanonicalAxes, RandomOrthogonal]
MeanChoice = Union[ZeroMean, ConstantMean]


@dataclass(frozen=True)
class SpikeSpec:
    """A concrete spiked population model at sample size n and dimension d.

    ``spikes`` holds the m dominant eigenvalues (m = len(spikes)); every
    remaining eigenvalue equals ``tail_value``.  Resolved eigenvalues must
    be finite and non-increasing at this d, and m < n, m < d; a ValueError
    names the offending pair otherwise (including a spike falling below
    the tail).
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
        if not 0 < self.tail_value < math.inf:
            raise ValueError(f"tail_value must be positive and finite, got {self.tail_value}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be positive, got n={self.n}, d={self.d}")
        m = len(self.spikes)
        if m >= self.n:
            raise ValueError(f"spike count m={m} must be < n={self.n}")
        if m >= self.d:
            raise ValueError(f"spike count m={m} must be < d={self.d}")
        values = [*self.spike_eigenvalues, self.tail_value]
        if not all(map(math.isfinite, values)):
            raise ValueError(
                f"spike eigenvalues must be finite at d={self.d}, got {self.spike_eigenvalues}"
            )
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
    canonical basis): these are the population scores, against which
    ``projection_scores`` of the sample is checked.  The tail coordinates
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


def _spike_rows(spec: SpikeSpec, lo: int, w: int) -> np.ndarray:
    """Rows lo to lo + w of U_m (w x m): on the canonical axes the exact
    0/1 slice of the identity, so a product with it keeps the bits of the
    columns it picks."""
    u = _spike_basis(spec)
    return np.eye(w, spec.m, lo) if u is None else u[lo : lo + w]


def _ones_u(spec: SpikeSpec) -> np.ndarray:
    """1'U_m (m,): 1 on the canonical axes, the column sums of U_m otherwise."""
    u = _spike_basis(spec)
    return np.ones(spec.m) if u is None else u.sum(axis=0)


def basis_vectors(spec: SpikeSpec) -> np.ndarray:
    """The m spike directions U_m = [u_1, ..., u_m] as a dense (d, m) matrix.

    Cheap for CanonicalAxes at any d.  For RandomOrthogonal it is the
    cached, read-only U_m.
    """
    return _spike_rows(spec, 0, spec.d)


def set_draw_threads(threads: int) -> int:
    """Set how many column blocks this process draws at once, on either
    basis; return the previous count.

    A sweep sets it in each process it runs replicates in.  The count does
    not change any bit of a sample, only how long the draw takes.
    """
    global _draw_threads
    if int(threads) < 1:
        raise ValueError(f"draw threads must be >= 1, got {threads}")
    previous, _draw_threads = _draw_threads, int(threads)
    return previous


def _normal_blocks(spec: SpikeSpec, seed, reduce):
    """reduce(lo, block) of each n x w standard-normal column block of the
    raw draw (n x d), in block order; lo is the block's first column.

    Block k is drawn from the replicate's Philox stream jumped k times, so
    any thread can draw it without the blocks before it, and block 0 is the
    unjumped stream.  With d <= SAMPLE_BLOCK the one block is the whole
    (n, d) draw.  The blocks are drawn on one thread, or on ``_draw_threads``
    pool threads that end with the iteration.  Each drawing thread fills
    one buffer of its own, which its next block overwrites: so ``reduce``
    runs on the drawing thread and must not keep the block, unless it is
    the only one.
    """
    root = np.random.Philox(seed)
    starts = range(0, spec.d, SAMPLE_BLOCK)
    local = threading.local()

    def draw(lo):
        w = min(SAMPLE_BLOCK, spec.d - lo)
        if not hasattr(local, "buf"):
            local.buf = np.empty(spec.n * min(SAMPLE_BLOCK, spec.d))
        # A short last block is a view of the buffer's first n w elements.
        block = local.buf[: spec.n * w].reshape(spec.n, w)
        np.random.Generator(root.jumped(lo // SAMPLE_BLOCK)).standard_normal(out=block)
        return reduce(lo, block)

    threads = min(_draw_threads, len(starts))
    if threads == 1:
        yield from map(draw, starts)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a threaded draw needs it

    # A reader that stops early cancels the blocks not yet started, and the
    # pool waits for the ones being drawn before the generator closes.
    with ThreadPoolExecutor(threads) as pool:
        yield from pool.map(draw, starts)


def _scale_canonical(spec: SpikeSpec, lo: int, block: np.ndarray) -> None:
    """Turn the raw block at column lo into the canonical model, in place:
    sqrt(lambda_j) on spike column j, sqrt(tau) elsewhere, then the mean."""
    root_lam = np.sqrt(spec.spike_eigenvalues[lo : lo + block.shape[1]])
    m = root_lam.size
    block[:, :m] *= root_lam
    if spec.tail_value != 1.0:  # x * 1.0 == x: skip a pass over the tail
        block[:, m:] *= np.sqrt(float(spec.tail_value))
    if spec.mean_vector_value != 0.0:
        block += spec.mean_vector_value


def _lay_blocks(spec: SpikeSpec, seed, prepare=None) -> np.ndarray:
    """The n x d draw of the block stream: ``prepare(lo, block)``, if given,
    runs on each raw block, which is then laid in its place.  With one block
    that block is the result itself, not a copy."""
    z = np.empty((spec.n, spec.d)) if spec.d > SAMPLE_BLOCK else None

    def place(lo, block):
        nonlocal z
        if prepare is not None:
            prepare(lo, block)
        if z is None:
            z = block
        else:
            z[:, lo : lo + block.shape[1]] = block

    for _ in _normal_blocks(spec, seed, place):
        pass
    return z


def generate_sample(spec: SpikeSpec, seed) -> DataMatrix:
    """Draw X = [X_1, ..., X_n] (d x n) from the spiked model.

    Each column is mean + A g_i with g_i i.i.d. standard normal and
    A = sqrt(tau) I + U_m (Lambda_m^{1/2} - sqrt(tau) I) U_m', the
    symmetric square root of the covariance, so the population scores are
    exactly U_m'g_i.  The raw blocks of the stream that ``sample_gram``
    reads (block k from the Philox stream of ``seed`` jumped k times) are
    laid side by side.  On the canonical axes A is diagonal: each block
    gives up its spike columns as the latent scores and is scaled in place
    before it is laid.  Otherwise the whole draw is scaled by sqrt(tau) in
    place (no pass at all when tau = 1, since x * 1.0 == x) and the rank-m
    term is added block by block, so the sample is the only n x d array.
    Deterministic given (spec, seed); seed may be an int, a tuple of ints,
    or a numpy SeedSequence.  The counter-based generator (Philox) makes
    replicate streams, and the blocks within one, independent of execution
    order, so the bits do not depend on ``set_draw_threads``.
    """
    u = _spike_basis(spec)
    if u is None:
        latent = np.empty((spec.n, spec.m))

        def prepare(lo, block):
            latent[:, lo : lo + block.shape[1]] = block[:, : max(spec.m - lo, 0)]
            _scale_canonical(spec, lo, block)

        z = _lay_blocks(spec, seed, prepare)
        return DataMatrix(values=z.T, latent=LatentScores(spike=latent), spec=spec)

    root_lam = np.sqrt(spec.spike_eigenvalues)
    root_tau = np.sqrt(float(spec.tail_value))
    z = _lay_blocks(spec, seed)
    spike = z @ u
    if root_tau != 1.0:
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


def sample_gram(spec: SpikeSpec, seed) -> tuple[np.ndarray, np.ndarray]:
    """X'X (n x n) and P = X'U_m (n x m) of ``generate_sample(spec, seed)``.

    With d <= SAMPLE_BLOCK the one block is the sample, and X'X and P are
    the products ``dual_pca`` and ``spike_projection`` form from it, to the
    bit.  Past that the raw blocks of ``SAMPLE_BLOCK`` columns (block k from
    the Philox stream of ``seed`` jumped k times) are drawn up to
    ``set_draw_threads`` at a time, reduced on the drawing threads and
    summed in block order, and X'X and P are assembled in n-space
    (``_assembled_gram``): so the d x n sample is never held, the result
    has the same bits at any thread count, and it equals those products to
    rounding.  The same holds on either basis.
    """
    # Overflow and NaN are left to the Gram-diagonal check of pca_engine.gram_pca.
    with np.errstate(invalid="ignore", over="ignore"):
        if spec.d > SAMPLE_BLOCK:
            return _assembled_gram(spec, seed)
        data = generate_sample(spec, seed)
        return data.values.T @ data.values, spike_projection(data)


def _assembled_gram(spec, seed):
    """X'X and P = X'U_m assembled in n-space from sums over the raw blocks
    g of the draw G: K = GG', S = GU_m and, under a non-zero mean, r = G1.

    The sample is X' = sqrt(tau) G + S (Lambda^{1/2} - sqrt(tau)) U_m' + mu 11',
    so P = S Lambda^{1/2} + mu 1 (1'U_m) and
    X'X = tau (K - SS') + PP' + mu (a1' + 1a') + mu^2 d 11', with
    a = sqrt(tau) (r - S U_m'1) + S Lambda^{1/2} U_m'1 the row sums of the
    mean-free sample.  Each term is symmetric, so X'X is too.  On the
    canonical axes S is bitwise the raw first m columns, so P is bitwise
    ``spike_projection`` of the sample.
    """
    mu = spec.mean_vector_value
    # U_m is built here: on a cache miss every draw thread would build its own.
    _spike_basis(spec)

    def moments(lo, g):
        u_rows = _spike_rows(spec, lo, g.shape[1])
        return g @ g.T, g @ u_rows, g.sum(axis=1) if mu != 0.0 else None

    gram = spike = rows = None
    for block_gram, block_spike, block_rows in _normal_blocks(spec, seed, moments):
        if gram is None:
            gram, spike, rows = block_gram, block_spike, block_rows
        else:
            gram += block_gram
            spike += block_spike
            if rows is not None:
                rows += block_rows
    tau = float(spec.tail_value)
    proj = spike * np.sqrt(spec.spike_eigenvalues)
    gram -= spike @ spike.T  # the Gram of the tail, G (I - U_m U_m') G'
    if tau != 1.0:
        gram *= tau
    gram += proj @ proj.T
    if mu != 0.0:
        ones_u = _ones_u(spec)
        a = math.sqrt(tau) * (rows - spike @ ones_u) + proj @ ones_u
        gram += mu * (a[:, None] + a) + mu * mu * spec.d
        proj += mu * ones_u
    return gram, proj


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
        proj = proj - mu * _ones_u(spec)
    return proj / np.sqrt(spec.spike_eigenvalues)
