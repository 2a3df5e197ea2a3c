"""Spiked-covariance population models and sample generation.

The population covariance is described by its eigen-structure only: a short
list of dominant eigenvalues (the spikes), a constant tail level, and a
choice of eigenbasis.  Each spike is one form, scale * d ** exponent, with
exponent 0 for a fixed spike, and the population mean is one number mu
times the all-ones vector.  Only the m spike directions U_m are ever held,
since the covariance is tau I + U_m (Lambda_m - tau I) U_m'; the d x d
covariance is never formed, so dimensions in the millions stay cheap.
A sweep replicate reads one route at every n and d: ``frame_sample``
draws the sample in a random frame K of R^n, X'X = K A K' in law, with
A = tau BB' + LL' an O(n m) operator: B is the lower-bidiagonal factor of
the tail Gram (Dumitriu & Edelman's beta = 1 Laguerre model) and L holds
the spike and mean terms.  ``pca_engine.frame_pca`` decomposes A and
carries the score vectors and the population scores S back by K
(``FrameSample.to_observation``), and ``population_projection`` turns S
into P = X'U_m.  No n x n or n x d array is formed, so the cost is free
of d and linear in n.

On either basis the dense sample (``generate_sample``) is the symmetric
square root of the covariance applied to an n x d standard-normal draw G,
one SFC64 draw seeded by the replicate's SeedSequence.  On a random basis
U_m is the Q factor of a seeded d x m Gaussian, cached per process; on the
canonical axes it is [e_1, ..., e_m], which the sampler never builds.  The
population scores S = GU_m, and the projection P = X'U_m of a sample
(``spike_projection``), come from ``_spike_coords``, the one place where
the two bases differ in how such a product is formed.  The dense sample is
the reference that ``frame_sample`` matches in law.  The basis and its
column sums 1'U_m are cached together; under a zero mean ``frame_sample``
never reads them, so there a replicate does not depend on the basis seed.

Every scalar field of a model or a config, and each rank, divisor, guard,
component, index, degrees of freedom and quantile level that the other
modules take, is checked by one of two rules kept here: ``_integer`` for
an integer and its twin ``_real`` for a real number.  ``workers``, which
may also be given as text, has its own rule (``runner._parse_workers``),
and a seed given straight to a draw is read by numpy's ``SeedSequence``.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Domain-separation tag for the basis RNG stream, so a basis seed can
# never collide with a (master_seed, grid, replicate) data stream.
_BASIS_STREAM_TAG = 0x9E3779B9


def _integer(value, name: str, low: Optional[int] = None) -> int:
    """``value`` as an int, for the integer field or argument ``name``, at
    least ``low`` unless that is None; a numpy integer passes.  A bool, or
    anything ``operator.index`` refuses (a float or a string, say), is
    refused with a ValueError, not truncated, as is a value below ``low``.
    ``_real`` is its twin for real numbers."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if low is None or number >= low:
                return number
            raise ValueError(f"{name} must be >= {low}, got {number}")
    raise ValueError(f"{name} must be an integer, got {value!r}")


# The ranges ``_real`` holds a number to, each under the words of its refusal.
_REAL_RANGES = {"positive and finite": lambda x: 0 < x < math.inf, "finite": math.isfinite,
                ">= 0 and finite": lambda x: 0 <= x < math.inf, "in (0, 1)": lambda x: 0 < x < 1}


def _real(value, name: str, bound: str = "positive and finite") -> float:
    """``value`` as a Python float, for the real field or argument ``name``,
    the twin of ``_integer``.  ``bound`` is the range, in the words of the
    refusal: ``"positive and finite"``, ``">= 0 and finite"``, ``"finite"``
    or ``"in (0, 1)"``.  A numpy float or integer passes.  A bool,
    ``np.bool_``, a string or anything else that is not a ``numbers.Real``
    is refused with a ValueError, as is a value out of range."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if _REAL_RANGES[bound](x):
            return x
    raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class SpikeProfile:
    """One spike eigenvalue, ``scale * d ** exponent`` at dimension d.

    A fixed spike is the case exponent = 0 (``SpikeProfile.fixed``), since
    ``d ** 0.0 == 1.0`` at every d; a power law in d is
    ``SpikeProfile.power``.  Both numbers are stored as Python floats
    (``_real``): scale positive, exponent >= 0, both finite.
    """

    scale: float
    exponent: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _real(self.scale, "spike scale"))
        object.__setattr__(
            self, "exponent", _real(self.exponent, "spike exponent", ">= 0 and finite")
        )

    @classmethod
    def power(cls, scale: float, exponent: float) -> "SpikeProfile":
        return cls(scale=scale, exponent=exponent)

    @classmethod
    def fixed(cls, value: float) -> "SpikeProfile":
        return cls(scale=value)

    def resolve(self, d: int) -> float:
        """Concrete eigenvalue at dimension d."""
        try:
            return self.scale * float(d) ** self.exponent
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

    def __post_init__(self) -> None:
        # SeedSequence takes non-negative entropy only.
        object.__setattr__(self, "seed", _integer(self.seed, "basis seed", 0))


BasisChoice = Union[CanonicalAxes, RandomOrthogonal]


@dataclass(frozen=True)
class SpikeSpec:
    """A concrete spiked population model at sample size n and dimension d.

    ``spikes`` holds the m dominant eigenvalues (m = len(spikes)); every
    remaining eigenvalue equals ``tail_value``.  The population mean is
    ``mean`` times the all-ones vector, so 0.0 is the zero-mean model.
    ``basis`` is a ``CanonicalAxes`` or a ``RandomOrthogonal``.  Resolved
    eigenvalues must be finite and non-increasing at this d, and m < n,
    m < d; a ValueError names the offending pair otherwise (including a
    spike falling below the tail).  Each spike must be a ``SpikeProfile``;
    ``tail_value`` (positive) and ``mean`` are stored as Python floats
    (``_real``), and n and d as ints (``_integer``).
    """

    spikes: tuple[SpikeProfile, ...]
    n: int
    d: int
    tail_value: float = 1.0
    basis: BasisChoice = CanonicalAxes()
    mean: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "spikes", tuple(self.spikes))
        if not self.spikes or not all(isinstance(p, SpikeProfile) for p in self.spikes):
            raise ValueError(f"spikes must be one or more SpikeProfile, got {self.spikes!r}")
        object.__setattr__(self, "tail_value", _real(self.tail_value, "tail_value"))
        if not isinstance(self.basis, (CanonicalAxes, RandomOrthogonal)):
            raise ValueError(f"basis must be CanonicalAxes or RandomOrthogonal, got {self.basis!r}")
        object.__setattr__(self, "mean", _real(self.mean, "mean value", "finite"))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "d", _integer(self.d, "d"))
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


@dataclass(frozen=True)
class DataMatrix:
    """A d x n sample and S (n x m), the standard-normal coordinates on the
    spike directions that produced it.

    ``latent`` is S = GU_m for the n x d draw G (its first m columns on the
    canonical axes): the population scores, against which
    ``projection_scores`` of the sample is checked.  The tail coordinates
    are not kept; where they are needed (``ratio_decomposition``) they are
    read back from the sample.
    """

    values: np.ndarray
    latent: np.ndarray
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
    ss = np.random.SeedSequence((seed, _BASIS_STREAM_TAG))
    return np.random.Generator(np.random.Philox(ss)).standard_normal((d, m))


@functools.lru_cache(maxsize=1)
def _cached_spike_basis(seed: int, d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    # U_m and its column sums 1'U_m, keyed on the three ints that determine
    # U_m, not on the spec, so every replicate of a grid point (whatever its
    # n or spikes) shares them.  One entry: a sweep visits grid points in
    # order.  Shared, so read-only.
    u = np.linalg.qr(_basis_draw(seed, d, m))[0]
    ones_u = u.sum(axis=0)
    u.flags.writeable = ones_u.flags.writeable = False
    return u, ones_u


def _spike_basis(spec: SpikeSpec) -> tuple[Optional[np.ndarray], np.ndarray]:
    """The spike directions U_m (d x m) and their column sums 1'U_m (m,):
    on the canonical axes None and ones, else the cached, read-only pair."""
    if isinstance(spec.basis, CanonicalAxes):
        return None, np.ones(spec.m)
    return _cached_spike_basis(spec.basis.seed, spec.d, spec.m)


def basis_vectors(spec: SpikeSpec) -> np.ndarray:
    """The m spike directions U_m = [u_1, ..., u_m] as a dense (d, m) matrix.

    On CanonicalAxes it is the exact 0/1 slice of the identity.  For
    RandomOrthogonal it is the cached, read-only U_m.
    """
    u = _spike_basis(spec)[0]
    return np.eye(spec.d, spec.m) if u is None else u


def _spike_coords(spec: SpikeSpec, g: np.ndarray) -> np.ndarray:
    """GU_m (n x m) of an n x d array G, as a new array: the one place where
    the two bases differ in how it is formed.  On a random basis it is one
    product with the cached U_m.  On the canonical axes, where u_j = e_j,
    it is G's first m columns: every other term of the product is an exact
    zero, so the bits are those of the product, and no d x m matrix is
    built."""
    u = _spike_basis(spec)[0]
    return g[:, : spec.m].copy() if u is None else g @ u


def generate_sample(spec: SpikeSpec, seed) -> DataMatrix:
    """Draw X = [X_1, ..., X_n] (d x n) from the spiked model.

    Each column is mean + A g_i with g_i i.i.d. standard normal and
    A = sqrt(tau) I + U_m (Lambda_m^{1/2} - sqrt(tau) I) U_m', the
    symmetric square root of the covariance, so the population scores are
    exactly U_m'g_i.  One rule on either basis: G (n x d) is one draw of
    the SFC64 generator seeded by ``seed``, as in ``frame_sample``;
    S = GU_m is taken (``_spike_coords``), and G is scaled by sqrt(tau) in
    place (no pass at all when tau = 1, since x * 1.0 == x).  The spike term
    follows: on the canonical axes it sets the m spike columns to
    S Lambda^{1/2}; otherwise the rank-m term S (Lambda^{1/2} - sqrt(tau)) U_m'
    is added in place by one BLAS ``dgemm``.  The mean comes last, so the
    sample is the only n x d array.  ``latent`` is S (n x m).
    Deterministic given (spec, seed); seed may be an int, a tuple of ints,
    or a numpy SeedSequence, and an int or tuple gives the same sample as
    ``SeedSequence(seed)``.  The draw reads ``seed`` alone, so replicate
    streams do not depend on execution order.
    """
    z = np.random.Generator(np.random.SFC64(seed)).standard_normal((spec.n, spec.d))
    spike = _spike_coords(spec, z)
    root_lam = np.sqrt(spec.spike_eigenvalues)
    root_tau = np.sqrt(spec.tail_value)
    if root_tau != 1.0:
        z *= root_tau
    u = _spike_basis(spec)[0]
    x = z.T  # (d, n), Fortran-ordered
    if u is None:
        z[:, : spec.m] = spike * root_lam
    else:
        from scipy.linalg.blas import dgemm

        # X += U_m C', C = S (Lambda^{1/2} - sqrt(tau)): one rank-m BLAS
        # update of the Fortran-ordered X in place, so no second n x d
        # array is held; U_m enters as its transpose, which is Fortran-ordered
        # too, so it is not copied either.
        corr = (root_lam - root_tau) * spike
        x = dgemm(1.0, u.T, corr, beta=1.0, c=x, trans_a=True, trans_b=True, overwrite_c=True)
    if spec.mean != 0.0:
        x += spec.mean
    return DataMatrix(values=x, latent=spike, spec=spec)


@dataclass(frozen=True)
class FrameSample:
    """A sample of the spiked model drawn in a random frame K of R^n.

    In law X'X = K A K' with A = BB' + LL' and K Haar on O(n), drawn by
    ``frame_sample``.  ``lead`` is L (n x (m + 1)), ``spikes`` is S~ = K'S
    (n x m), ``ones`` is h = K'1, and ``tail_diag`` (r) and ``tail_sub``
    (min(n - 1, r)) are the diagonal and subdiagonal of the lower-bidiagonal
    n x r factor B of the tail Gram, already scaled by sqrt(tau).
    ``stiefel`` is the (n - 1) x min(2m, n - 1) frame W that stands in for
    K's free part (``to_observation``), and ``d`` the sample's dimension.
    Every array is O(n m).
    """

    lead: np.ndarray
    tail_diag: np.ndarray
    tail_sub: np.ndarray
    spikes: np.ndarray
    ones: np.ndarray
    stiefel: np.ndarray
    d: int

    @property
    def n(self) -> int:
        return self.lead.shape[0]

    def trace(self) -> float:
        """tr A, the sum of squares of B and L."""
        return float(self.tail_diag @ self.tail_diag + self.tail_sub @ self.tail_sub
                     + np.einsum("ij,ij->", self.lead, self.lead))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v = B(B'v) + L(L'v), at O(n m)."""
        v = np.ravel(v)
        diag, sub = self.tail_diag, self.tail_sub
        r, s = diag.size, sub.size
        u = diag * v[:r]
        u[:s] += sub * v[1 : s + 1]
        out = self.lead @ (self.lead.T @ v)
        out[:r] += diag * u
        out[1 : s + 1] += sub * u[:s]
        return out

    def to_observation(self, z: np.ndarray) -> np.ndarray:
        """K z for an n x c array z of K's frame, with c <= 2m unless
        n - 1 <= 2m.

        Given h, K = R_1 (1 (+) J) R_h, where the Householder reflection R_h
        takes h / sqrt(n) to s e_1, s = -sign(h_1) (the sign that avoids
        cancellation), R_1 takes s e_1 to 1 / sqrt(n), and J is Haar on
        O(n - 1).  J acts
        on the lower block Y = Q_Y R_Y of R_h z as W R_Y, since J Q_Y is
        uniform on the Stiefel manifold whatever Y is; W is its draw.  So
        the result is exact in law jointly with A, h and S~, if every array
        that must share one K is mapped in one call.  O(n c^2).
        """
        v = self.ones / math.sqrt(self.n)
        sigma = -1.0 if v[0] >= 0.0 else 1.0
        first = v.copy()
        first[0] -= sigma
        z = _reflect(np.array(z, dtype=float), first)
        r = np.linalg.qr(z[1:], mode="r")
        if r.shape[0] > self.stiefel.shape[1]:
            raise ValueError(f"the frame maps at most {self.stiefel.shape[1]} columns at n = "
                             f"{self.n}, got {z.shape[1]}")
        z[1:] = self.stiefel[:, : r.shape[0]] @ r
        second = np.full(self.n, -1.0 / math.sqrt(self.n))
        second[0] += sigma
        return _reflect(z, second)


def _reflect(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(I - 2ww' / w'w) z, in place."""
    z -= np.outer(w, (2.0 / (w @ w)) * (w @ z))
    return z


def frame_sample(spec: SpikeSpec, seed) -> FrameSample:
    """One sample of the spiked model in a random frame of R^n, at O(n m)
    memory and time whatever d is: exact in law, and no n x n or n x d
    array is formed.

    Write the draw in an orthonormal frame of R^d whose first m axes are U_m
    and whose next axis is c / ||c||, c = (I - U_mU_m')1, so
    ||c||^2 = d - |U_m'1|^2.  The sample is then
    X' = [S Lambda^{1/2} + mu 1 (1'U_m) | sqrt(tau) a + mu ||c|| 1 | sqrt(tau) G],
    with S (n x m), a (n) and G (n x nu), nu = d - m - 1, independent
    standard normals.  By Dumitriu & Edelman's beta = 1 Laguerre model
    (J. Math. Phys. 43 (2002) 5830), GG' = K BB' K' in law, with K Haar on
    O(n) and independent of B, the lower-bidiagonal n x r matrix,
    r = min(n, nu), with diagonal chi_nu, ..., chi_{nu-r+1} and subdiagonal
    chi_{n-1}, chi_{n-2}, ... in rows 2 to min(n, r + 1).  With S~ = K'S and
    a~ = K'a (again independent standard normals) and h = K'1 (uniform on
    the sphere of radius sqrt(n)), X'X = K A K' with A = tau BB' + LL' and
    L = [S~ Lambda^{1/2} + mu h (1'U_m) | sqrt(tau) a~ + mu ||c|| h].
    ``FrameSample.to_observation`` carries n-space arrays back by K, and
    ``pca_engine.frame_pca`` decomposes A.

    One SFC64 generator seeded by ``seed`` (a SeedSequence, or an int or a
    tuple of ints for ``SeedSequence(seed)``) draws, in order: z (n), with
    h = sqrt(n) z / ||z||, under either mean; S~ (n x m); a~ (n); the r
    chi-square variates of B's diagonal, df nu, ..., nu - r + 1; the
    min(n - 1, r) of its subdiagonal, df n - 1, n - 2, ...; and an
    (n - 1) x min(2m, n - 1) standard-normal array, whose Q factor with the
    signs of R's diagonal made positive is W, uniform on the Stiefel
    manifold.  At d = m + 1, nu = 0 and B is empty.  U_m'1 is read only
    under a non-zero mean, so a zero-mean sample does not depend on the
    basis.
    """
    n, m, d = spec.n, spec.m, spec.d
    rng = np.random.Generator(np.random.SFC64(seed))
    z = rng.standard_normal(n)
    h = math.sqrt(n) * z / np.linalg.norm(z)
    spikes = rng.standard_normal((n, m))
    a = rng.standard_normal(n)
    nu = d - m - 1
    r = min(n, nu)
    diag = np.sqrt(rng.chisquare(nu - np.arange(r)))
    sub = np.sqrt(rng.chisquare(n - 1 - np.arange(min(n - 1, r))))
    q, rr = np.linalg.qr(rng.standard_normal((n - 1, min(2 * m, n - 1))))
    q *= np.where(np.diagonal(rr) < 0.0, -1.0, 1.0)
    root_tau = math.sqrt(spec.tail_value)
    lead = np.empty((n, m + 1))
    lead[:, :m] = spikes * np.sqrt(spec.spike_eigenvalues)
    lead[:, m] = root_tau * a
    mu = spec.mean
    if mu != 0.0:
        ones_u = _spike_basis(spec)[1]
        lead[:, :m] += np.outer(mu * h, ones_u)
        lead[:, m] += mu * math.sqrt(d - ones_u @ ones_u) * h
    return FrameSample(lead=lead, tail_diag=root_tau * diag, tail_sub=root_tau * sub,
                       spikes=spikes, ones=h, stiefel=q, d=d)


def spike_projection(data: DataMatrix) -> np.ndarray:
    """P = X'U_m (n x m), every observation projected on the spike directions.

    It is ``_spike_coords`` of X': on the canonical axes the first m rows
    of X, transposed.
    """
    return _spike_coords(data.spec, data.values.T)


def projection_scores(spec: SpikeSpec, proj: np.ndarray) -> np.ndarray:
    """Population scores S = (P - mu 1'U_m) / sqrt(lambda) from P = X'U_m."""
    if spec.mean != 0.0:
        proj = proj - spec.mean * _spike_basis(spec)[1]
    return proj / np.sqrt(spec.spike_eigenvalues)


def population_projection(spec: SpikeSpec, scores: np.ndarray) -> np.ndarray:
    """P = X'U_m = S Lambda^{1/2} + mu 1 (1'U_m) from the population scores S,
    the inverse of ``projection_scores``.  U_m'1 is read only under a
    non-zero mean."""
    proj = scores * np.sqrt(spec.spike_eigenvalues)
    if spec.mean != 0.0:
        proj += spec.mean * _spike_basis(spec)[1]
    return proj
