"""Spiked-model resolution, generation, and population scores."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from spikescore import spike_model
from spikescore.spike_model import (
    CanonicalAxes,
    DataMatrix,
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


def single_spike_spec(d=200, n=10, exponent=1.6, **kwargs):
    return SpikeSpec(spikes=(SpikeProfile.power(1.0, exponent),), n=n, d=d, **kwargs)


def complete_basis(spec):
    """Dense oracle: the complete QR of the draw behind U_m, a full d x d
    orthonormal basis whose first m columns span the spike directions."""
    return np.linalg.qr(spike_model._basis_draw(spec.basis.seed, spec.d, spec.m),
                        mode="complete")[0]


def population_scores(data):
    return projection_scores(data.spec, spike_projection(data))


def reference_draw(seed, shape):
    """The raw draw G: one standard-normal array from an SFC64 generator
    seeded by the SeedSequence of ``seed``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed))).standard_normal(shape)


class TestResolveEigenvalues:
    def test_power_law(self):
        spec = single_spike_spec(d=100, n=10, exponent=1.5)
        assert spec.spike_eigenvalues == pytest.approx([1000.0])  # 100**1.5
        assert spec.tail_value == 1.0

    def test_literal_passthrough(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(5.0), SpikeProfile.fixed(5.0)), n=3, d=4
        )
        assert np.array_equal(spec.spike_eigenvalues, [5.0, 5.0])

    def test_ordering_violation_names_pair(self):
        with pytest.raises(ValueError, match="lambda_1.*lambda_2"):
            SpikeSpec(
                spikes=(SpikeProfile.power(1, 1.0), SpikeProfile.power(1, 2.0)),
                n=5,
                d=10,
            )

    def test_spike_below_tail_rejected(self):
        with pytest.raises(ValueError, match="tail"):
            SpikeSpec(spikes=(SpikeProfile.fixed(0.5),), n=4, d=10, tail_value=1.0)


class TestSpikeProfile:
    def test_needs_exactly_one_form(self):
        with pytest.raises(TypeError):
            SpikeProfile()

    def test_positivity(self):
        with pytest.raises(ValueError):
            SpikeProfile.power(-1.0, 1.0)
        with pytest.raises(ValueError):
            SpikeProfile.power(1.0, -0.5)
        with pytest.raises(ValueError):
            SpikeProfile.fixed(0.0)

    @pytest.mark.parametrize("d", [1, 10**6, 10**12])
    def test_fixed_spike_is_its_value_at_every_d(self, d):
        # d ** 0.0 == 1.0, so a fixed spike is the power law with exponent 0
        # and resolves to its value bit for bit.
        assert SpikeProfile.fixed(5.0) == SpikeProfile.power(5.0, 0.0)
        for value in (5.0, 0.1, 2.0 / 3.0, 1e-300, 1e300):
            assert SpikeProfile.fixed(value).resolve(d).hex() == value.hex()


class TestSpecValidation:
    def test_spike_count_vs_n(self):
        with pytest.raises(ValueError, match="m=2 must be < n=2"):
            SpikeSpec(spikes=(SpikeProfile.fixed(3), SpikeProfile.fixed(2)), n=2, d=10)

    def test_spike_count_vs_d(self):
        with pytest.raises(ValueError, match="m=1 must be < d=1"):
            SpikeSpec(spikes=(SpikeProfile.fixed(3),), n=5, d=1)

    def test_tail_positive(self):
        with pytest.raises(ValueError, match="tail"):
            SpikeSpec(spikes=(SpikeProfile.fixed(3),), n=5, d=10, tail_value=0.0)

    @pytest.mark.parametrize("basis", [3, None, "canonical"])
    def test_basis_of_wrong_type_refused(self, basis):
        with pytest.raises(ValueError, match=re.escape(
                f"basis must be CanonicalAxes or RandomOrthogonal, got {basis!r}")):
            SpikeSpec(spikes=(SpikeProfile.fixed(3),), n=5, d=10, basis=basis)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mean_refused(self, mean):
        with pytest.raises(ValueError, match="mean value must be finite"):
            SpikeSpec(spikes=(SpikeProfile.fixed(3),), n=5, d=10, mean=mean)

    def test_d_less_than_n_allowed(self):
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(3),), n=50, d=5)
        assert spec.d == 5


class TestGeneration:
    def test_canonical_rows_are_scaled_latents(self):
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(9.0),), n=8, d=50)
        data = generate_sample(spec, 123)
        z = reference_draw(123, (8, 50))
        assert np.array_equal(data.values[0], 3.0 * z[:, 0])
        assert np.array_equal(data.values[1], z[:, 1])
        assert np.array_equal(data.latent[:, 0], z[:, 0])

    def test_deterministic_given_seed(self):
        spec = single_spike_spec()
        a = generate_sample(spec, 77)
        b = generate_sample(spec, 77)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.latent, b.latent)
        c = generate_sample(spec, 78)
        assert not np.array_equal(a.values, c.values)

    def test_tuple_seed_streams_are_distinct(self):
        spec = single_spike_spec()
        a = generate_sample(spec, (5, 200, 0))
        b = generate_sample(spec, (5, 200, 1))
        assert not np.array_equal(a.values, b.values)
        again = generate_sample(spec, (5, 200, 0))
        assert np.array_equal(a.values, again.values)

    def test_constant_mean_shifts_everything(self):
        base = single_spike_spec(d=60, n=6)
        shifted = single_spike_spec(d=60, n=6, mean=2.5)
        x0 = generate_sample(base, 9).values
        x1 = generate_sample(shifted, 9).values
        assert np.allclose(x1, x0 + 2.5, atol=0, rtol=0)

    def test_latent_keeps_only_spike_columns(self):
        small = generate_sample(single_spike_spec(d=600, n=4), 1)
        big = generate_sample(single_spike_spec(d=10_001, n=4), 1)
        assert small.latent.shape == big.latent.shape == (4, 1)

    @pytest.mark.parametrize(
        "basis, max_ratio, mean, tail_value",
        [
            pytest.param(CanonicalAxes(), 1.5, 0.0, 1.0, id="basis0-1.5"),
            pytest.param(RandomOrthogonal(seed=6), 1.5, 0.0, 1.0, id="basis1-1.5"),
            pytest.param(CanonicalAxes(), 1.5, 2.0, 1.0, id="canonical-mean"),
            pytest.param(
                RandomOrthogonal(seed=6), 1.5, 2.0, 1.0, id="orthogonal-mean"
            ),
            pytest.param(CanonicalAxes(), 1.5, 0.0, 2.0, id="canonical-tail"),
            pytest.param(RandomOrthogonal(seed=6), 1.5, 0.0, 2.0, id="orthogonal-tail"),
        ],
    )
    def test_no_second_copy_of_the_draw(self, basis, max_ratio, mean, tail_value):
        # The draw is scaled in place and is the sample on either basis;
        # the rank-m correction is added in place by one dgemm.  A kept copy
        # of the draw, a scaled copy for sqrt(tau), a whole n x d correction,
        # or a shifted copy for the mean would add one more n x d array.  U_m
        # is built first, as a sweep holds it cached.
        spec = single_spike_spec(d=5_000, n=40, basis=basis, mean=mean, tail_value=tail_value)
        spike_model._spike_basis(spec)
        tracemalloc.start()
        try:
            data = generate_sample(spec, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < max_ratio * data.values.nbytes

    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=5)], ids=["canonical", "orthogonal"]
    )
    def test_no_second_copy_of_a_wide_draw(self, basis):
        # d = 65,553 with every term of the model.  At n = 8 a random
        # basis's rank-m correction is added in place by one dgemm on the
        # Fortran-ordered sample; the canonical axes set the spike columns
        # in place.  Neither may hold a second n x d array.
        spec = single_spike_spec(
            d=65_553, n=8, basis=basis, mean=1.5, tail_value=2.0
        )
        spike_model._spike_basis(spec)
        tracemalloc.start()
        try:
            data = generate_sample(spec, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.values.nbytes

    def test_mismatched_shapes_rejected(self):
        spec = single_spike_spec(d=20, n=4)
        latent = np.zeros((4, 1))
        with pytest.raises(ValueError, match="does not match spec"):
            DataMatrix(values=np.zeros((21, 4)), latent=latent, spec=spec)


class TestRandomOrthogonalBasis:
    def test_basis_orthonormal(self):
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(50), SpikeProfile.fixed(10)), n=8, d=300,
                         basis=RandomOrthogonal(seed=4))
        u = basis_vectors(spec)
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)

    def test_basis_vectors_match_full_matrix(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(50), SpikeProfile.fixed(10)),
            n=6,
            d=40,
            basis=RandomOrthogonal(seed=11),
        )
        u_full = complete_basis(spec)
        assert np.allclose(u_full.T @ u_full, np.eye(40), atol=1e-12)
        assert np.allclose(basis_vectors(spec), u_full[:, :2], atol=1e-12)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="basis seed must be >= 0, got -1"):
            RandomOrthogonal(seed=-1)
        assert RandomOrthogonal(seed=0).seed == 0

    def test_same_seed_same_rotation(self):
        spec = single_spike_spec(d=64, n=5, basis=RandomOrthogonal(seed=3))
        assert np.array_equal(basis_vectors(spec), basis_vectors(spec))

    def test_sample_matches_dense_symmetric_root(self):
        # X = A G with A = U diag(sqrt(lambda)) U' the symmetric root of the
        # covariance, formed densely from the complete basis.
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(50.0), SpikeProfile.fixed(10.0)),
            n=7,
            d=60,
            tail_value=2.0,
            basis=RandomOrthogonal(seed=5),
        )
        u = complete_basis(spec)
        lam = np.r_[spec.spike_eigenvalues, np.full(spec.d - spec.m, spec.tail_value)]
        root_lam = np.sqrt(lam)[:, None]
        g = reference_draw(123, (spec.n, spec.d)).T
        expected = u @ (root_lam * (u.T @ g))
        values = generate_sample(spec, 123).values
        assert np.linalg.norm(values - expected) < 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("d", [1_000, 100_000])
    def test_spike_directions_are_not_near_the_axes(self, d):
        # Uniformly random unit vectors have max |u_ij| ~ sqrt(2 log(d) / d);
        # a basis close to the canonical axes has an entry near 1.
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(1e9), SpikeProfile.fixed(1e8)),
            n=10,
            d=d,
            basis=RandomOrthogonal(seed=2),
        )
        assert np.abs(basis_vectors(spec)).max() * np.sqrt(d) < 10.0

    def test_frame_cache_key_does_not_alias(self):
        def spec(seed, d):
            return single_spike_spec(d=d, n=5, basis=RandomOrthogonal(seed=seed))

        base = spike_model._spike_basis(spec(3, 64))[0]
        assert spike_model._spike_basis(spec(3, 64))[0] is base
        for other in (spec(4, 64), spec(3, 65)):
            u = spike_model._spike_basis(other)[0]
            assert u is not base
            assert u.shape == (other.d, other.m)
        assert not np.array_equal(basis_vectors(spec(3, 64)), basis_vectors(spec(4, 64)))

    def test_projection_variance_matches_eigenvalue(self):
        # Empirical variance of u_1'X over >= 1e5 independent observations
        # sits within 4 standard errors of lambda_1.
        n_obs = 100_000
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(4.0),),
            n=n_obs,
            d=5,
            basis=RandomOrthogonal(seed=21),
        )
        data = generate_sample(spec, 101)
        u1 = basis_vectors(spec)[:, 0]
        proj = u1 @ data.values
        var = proj.var(ddof=1)
        se = 4.0 * np.sqrt(2.0 / (n_obs - 1))
        assert abs(var - 4.0) < 4 * se


class TestPopulationScores:
    def test_matches_latent_canonical(self):
        data = generate_sample(single_spike_spec(d=500, n=12), 31)
        s = population_scores(data)
        rel = np.abs(s - data.latent) / np.abs(data.latent)
        assert rel.max() < 1e-12

    def test_matches_latent_orthogonal(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(100), SpikeProfile.fixed(25)),
            n=9,
            d=400,
            basis=RandomOrthogonal(seed=8),
        )
        data = generate_sample(spec, 32)
        s = population_scores(data)
        rel = np.abs(s - data.latent) / np.maximum(np.abs(data.latent), 1e-12)
        assert rel.max() < 1e-10

    def test_brute_force_oracle_small_case(self):
        # Materialize the rotation explicitly and project by hand.
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(16.0),),
            n=4,
            d=6,
            basis=RandomOrthogonal(seed=13),
        )
        data = generate_sample(spec, 55)
        u = complete_basis(spec)
        expected = np.array(
            [[u[:, 0] @ data.values[:, i] / 4.0] for i in range(4)]
        )
        assert np.allclose(population_scores(data), expected, atol=1e-12)

    def test_simple_division_example(self):
        # lambda_1 = 4, first row (2, -4, 6) => scores (1, -2, 3).
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(4.0),), n=3, d=5)
        data = generate_sample(spec, 1)
        values = data.values.copy()
        values[0] = [2.0, -4.0, 6.0]
        hacked = DataMatrix(values=values, latent=data.latent, spec=spec)
        assert np.allclose(population_scores(hacked)[:, 0], [1.0, -2.0, 3.0])

    def test_constant_mean_is_removed(self):
        spec = single_spike_spec(d=80, n=7, mean=3.0)
        data = generate_sample(spec, 44)
        s = population_scores(data)
        assert np.allclose(s, data.latent, atol=1e-10)


class TestSpikeProjection:
    @pytest.mark.parametrize(
        "spikes, basis, mean",
        [
            ((100.0,), CanonicalAxes(), 0.0),
            ((100.0, 25.0), CanonicalAxes(), 0.0),
            ((100.0, 25.0), RandomOrthogonal(seed=8), 0.0),
            ((100.0, 25.0), CanonicalAxes(), 3.0),
            ((100.0, 25.0), RandomOrthogonal(seed=8), -1.5),
        ],
    )
    def test_bitwise_equal_to_product_with_basis(self, spikes, basis, mean):
        spec = SpikeSpec(
            spikes=tuple(SpikeProfile.fixed(v) for v in spikes),
            n=9,
            d=400,
            basis=basis,
            mean=mean,
        )
        data = generate_sample(spec, 61)
        proj = spike_projection(data)
        expected = data.values.T @ basis_vectors(spec)
        assert proj.shape == (9, len(spikes))
        assert np.array_equal(proj, expected)

    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    def test_is_the_scaled_latent(self, basis, mean):
        # Six spike columns: P = X'U_m = S Lambda^{1/2} + mu 1 (1'U_m), with
        # S = GU_m of the raw draw, the identity the frame's L is built on.
        spec = SpikeSpec(
            spikes=tuple(SpikeProfile.fixed(v) for v in (9e6, 7e6, 5e6, 3e6, 2e6, 1e6)),
            n=12,
            d=30,
            tail_value=2.0,
            basis=basis,
            mean=mean,
        )
        data = generate_sample(spec, 23)
        z = reference_draw(23, (12, 30))
        proj = spike_projection(data)
        expected = population_projection(spec, data.latent)
        if isinstance(basis, CanonicalAxes):
            assert np.array_equal(data.latent, z[:, :6])
            assert np.array_equal(proj, expected)
        else:
            latent = z @ basis_vectors(spec)
            assert np.max(np.abs(data.latent - latent)) <= 1e-14 * np.max(np.abs(latent))
            assert np.max(np.abs(proj - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDenseGram:
    # X' = GA + mu 11' for the raw draw G (n x d) and the symmetric root A,
    # so X'X = tau GG' + S (Lambda - tau) S' + mu (b1' + 1b') + mu^2 d 11'
    # with S = GU_m and b = GA1 = sqrt(tau) G1 + S (Lambda^{1/2} - sqrt(tau)) U_m'1:
    # the n-space form of the Gram that the frame draws in law.
    @pytest.mark.parametrize("d", [400, 24_593])
    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    @pytest.mark.parametrize("tail_value", [1.0, 2.0])
    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    def test_is_the_n_space_assembly(self, basis, tail_value, mean, d):
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(1.0, 1.4)),
            n=7,
            d=d,
            tail_value=tail_value,
            basis=basis,
            mean=mean,
        )
        seed = (5, d, 1)
        x = generate_sample(spec, seed).values
        g = reference_draw(seed, (spec.n, d))
        u = basis_vectors(spec)
        s = g @ u
        lam, root_tau, mu = spec.spike_eigenvalues, np.sqrt(tail_value), spec.mean
        b = root_tau * g.sum(axis=1) + s @ ((np.sqrt(lam) - root_tau) * u.sum(axis=0))
        gram = tail_value * (g @ g.T) + (s * (lam - tail_value)) @ s.T
        gram += mu * (b[:, None] + b) + mu * mu * d
        expected = x.T @ x
        assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDocumentedDraw:
    @pytest.mark.parametrize("mean", [0.0, -1.5], ids=["zero", "constant"])
    def test_sample_is_the_scaled_draw(self, mean):
        # Reference: one SFC64 draw of G (n x d), then the row scaling and
        # the mean of the model, past the width of any BLAS or cache block.
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(1.0, 1.4)),
            n=3,
            d=16_389,
            tail_value=2.0,
            mean=mean,
        )
        z = reference_draw(17, (3, spec.d))
        scale = np.full(spec.d, np.sqrt(2.0))
        scale[:2] = np.sqrt(spec.spike_eigenvalues)
        data = generate_sample(spec, 17)
        assert np.array_equal(data.latent, z[:, :2])
        assert np.array_equal(data.values, (z * scale + spec.mean).T)


class TestSeeds:
    D = 24_593

    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    def test_spawning_from_the_seed_changes_no_bit(self, basis):
        # spawn() counts its calls on the SeedSequence; the draw must not
        # read that count.
        spec = single_spike_spec(d=self.D, n=5, basis=basis)
        data = generate_sample(spec, np.random.SeedSequence((5, self.D, 1)))
        seed = np.random.SeedSequence((5, self.D, 1))
        seed.spawn(3)
        spawned = generate_sample(spec, seed)
        assert np.array_equal(spawned.values, data.values)
        assert np.array_equal(spawned.latent, data.latent)

    def test_int_seed_is_its_seed_sequence(self):
        spec = single_spike_spec(d=self.D, n=5)
        a = generate_sample(spec, 17)
        b = generate_sample(spec, np.random.SeedSequence(17))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.latent, b.latent)

    def test_tuple_seed_is_its_seed_sequence(self):
        spec = single_spike_spec(d=self.D, n=5, basis=RandomOrthogonal(seed=3))
        a = generate_sample(spec, (5, self.D, 1))
        b = generate_sample(spec, np.random.SeedSequence((5, self.D, 1)))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.latent, b.latent)

    def test_tail_columns_are_standard_normal(self):
        # On the canonical axes with tau = 1 and a zero mean the tail rows of
        # the sample are the raw draw.
        from scipy import stats

        spec = single_spike_spec(d=24_576, n=4)
        tail = generate_sample(spec, 17).values[spec.m :]
        assert stats.kstest(tail.ravel(), "norm").pvalue > 1e-3
        # No value repeats: so no row, and no shifted stretch of the same
        # stream, is drawn twice.
        assert np.unique(tail).size == tail.size


def frame_factor(frame):
    """The frame's dense n x (m + 1 + r) factor [L | sqrt(tau) B] in K's
    frame, whose Gram is A."""
    n, r, s = frame.n, frame.tail_diag.size, frame.tail_sub.size
    b = np.zeros((n, r))
    b[np.arange(r), np.arange(r)] = frame.tail_diag
    b[np.arange(1, s + 1), np.arange(s)] = frame.tail_sub
    return np.hstack([frame.lead, b])


def reference_frame(spec, seed):
    """The frame drawn from scratch, one variate at a time: one SFC64
    generator seeded by the SeedSequence of ``seed`` draws z (n), with
    h = sqrt(n) z / ||z||, S~ (n x m), a~ (n), the r chi-square variates of
    B's diagonal (df nu, ..., nu - r + 1, nu = d - m - 1, r = min(n, nu)),
    the min(n - 1, r) of its subdiagonal (df n - 1, n - 2, ...), and the
    (n - 1) x min(2m, n - 1) Gaussian whose sign-fixed Q factor is W.
    Returns [L | sqrt(tau) B], with
    L = [S~ Lambda^{1/2} + mu h (1'U_m) | sqrt(tau) a~ + mu ||c|| h], and
    h, S~ and W."""
    n, m, d = spec.n, spec.m, spec.d
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    z = rng.standard_normal(n)
    h = np.sqrt(n) * z / np.linalg.norm(z)
    s = rng.standard_normal((n, m))
    a = rng.standard_normal(n)
    nu = d - m - 1
    r = min(n, nu)
    b = np.zeros((n, r))
    for i, chi in enumerate(rng.chisquare([nu - i for i in range(r)])):
        b[i, i] = np.sqrt(chi)
    for i, chi in enumerate(rng.chisquare([n - 1 - i for i in range(min(n - 1, r))])):
        b[i + 1, i] = np.sqrt(chi)
    q, rr = np.linalg.qr(rng.standard_normal((n - 1, min(2 * m, n - 1))))
    w = q * np.sign(np.diagonal(rr))
    root_tau, mu = np.sqrt(spec.tail_value), spec.mean
    ones_u = basis_vectors(spec).sum(axis=0)
    f = np.zeros((n, m + 1 + r))
    for i in range(n):
        f[i, :m] = s[i] * np.sqrt(spec.spike_eigenvalues) + mu * h[i] * ones_u
        f[i, m] = root_tau * a[i] + mu * np.sqrt(d - ones_u @ ones_u) * h[i]
        f[i, m + 1 :] = root_tau * b[i]
    return f, h, s, w


class TestFrameFactor:
    # The frame's factor [L | sqrt(tau) B] (frame_factor) is, in K's frame,
    # the n x min(d, n + m + 1) factor of the sample.
    SPIKES = tuple(SpikeProfile.fixed(v) for v in (40.0, 30.0, 20.0, 10.0))

    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    @pytest.mark.parametrize("d", [8, 5], ids=["d8", "k0"])
    def test_rank_is_that_of_the_sample(self, d, basis):
        # d = 8: B is 12 x 3; d = m + 1: B is empty, the factor is L.
        spec = SpikeSpec(
            spikes=self.SPIKES, n=12, d=d, tail_value=2.0, basis=basis, mean=2.5
        )
        f = frame_factor(frame_sample(spec, 23))
        assert f.shape == (12, d)
        assert np.linalg.matrix_rank(f @ f.T) == min(spec.n, d)

    @pytest.mark.parametrize("mean", [0.0, -1.5], ids=["zero", "constant"])
    @pytest.mark.parametrize("tail_value", [1.0, 2.0])
    @pytest.mark.parametrize(
        "basis, d",
        [(CanonicalAxes(), 5), (CanonicalAxes(), 10), (CanonicalAxes(), 10**12),
         (RandomOrthogonal(seed=3), 10), (RandomOrthogonal(seed=3), 5_000)],
    )
    def test_gram_is_the_n_space_assembly(self, basis, d, tail_value, mean):
        # Any rotation that takes h to 1 (here the reflection across h - 1)
        # carries the frame's factor to a factor F of a sample in the
        # observation frame.  From F's own columns read back S, the tail Gram
        # T = aa' + LL' and the tail row sums ||c|| a.  With P_0 = S Lambda^{1/2}
        # the projection of the mean-free sample and b = sqrt(tau) ||c|| a +
        # P_0 U_m'1 its row sums, FF' must be
        # X'X = tau T + P_0P_0' + mu (b1' + 1b') + mu^2 d 11', and F[:, :m]
        # must be P = P_0 + mu 1 (1'U_m).
        spec = SpikeSpec(spikes=self.SPIKES, n=12, d=d, tail_value=tail_value, basis=basis,
                         mean=mean)
        frame = frame_sample(spec, np.random.SeedSequence((5, d, 1)))
        w = frame.ones - 1.0
        f = frame_factor(frame)
        f -= np.outer(w, (2.0 / (w @ w)) * (w @ f))
        m, mu, root_tau = spec.m, spec.mean, np.sqrt(tail_value)
        ones_u = np.ones(m) if isinstance(basis, CanonicalAxes) else basis_vectors(spec).sum(axis=0)
        norm_c = np.sqrt(d - ones_u @ ones_u)
        spike = (f[:, :m] - mu * ones_u) / np.sqrt(spec.spike_eigenvalues)
        a = (f[:, m] - mu * norm_c) / root_tau
        lower = f[:, m + 1 :] / root_tau
        tail = np.outer(a, a) + lower @ lower.T
        free = spike * np.sqrt(spec.spike_eigenvalues)
        b = root_tau * norm_c * a + free @ ones_u
        gram = tail_value * tail + free @ free.T + mu * (b[:, None] + b) + mu * mu * d
        proj = free + mu * ones_u
        assert np.max(np.abs(f @ f.T - gram)) <= 1e-14 * np.max(np.abs(gram))
        assert np.max(np.abs(f[:, :m] - proj)) <= 1e-14 * np.max(np.abs(proj))

    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    @pytest.mark.parametrize(
        "n, d", [(12, 30), (12, 12), (12, 8), (12, 5), (6, 30)],
        ids=["r-is-n", "d-is-n", "d-below-n", "nu0", "w-square"],
    )
    def test_bits_follow_the_documented_draw(self, n, d, basis, mean):
        # m = 4: r = 12, 7, 3, 0 at n = 12, where W is 11 x 8; at n = 6, W is
        # square (5 x 5).
        spec = SpikeSpec(spikes=self.SPIKES, n=n, d=d, tail_value=2.0, basis=basis, mean=mean)
        frame = frame_sample(spec, 17)
        f, h, s, w = reference_frame(spec, 17)
        assert np.array_equal(frame_factor(frame), f)
        assert np.array_equal(frame.ones, h)
        assert np.array_equal(frame.spikes, s)
        assert np.array_equal(frame.stiefel, w)
        # An int seed is its SeedSequence.
        again = frame_sample(spec, np.random.SeedSequence(17))
        assert np.array_equal(frame_factor(again), frame_factor(frame))

    def test_holds_little_beyond_the_factor(self):
        # At n = d = 800 the draw holds its O(n m) arrays and temporaries of
        # their size; no n x n array.
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(2.0, 2.0), SpikeProfile.power(1.0, 2.0)), n=800, d=800
        )
        tracemalloc.start()
        try:
            frame = frame_sample(spec, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = sum(getattr(frame, name).nbytes for name in
                     ("lead", "tail_diag", "tail_sub", "spikes", "ones", "stiefel"))
        assert peak < 2 * nbytes < 0.1 * 8 * spec.n**2


class TestFrameSeeds:
    SPEC = SpikeSpec(spikes=TestFrameFactor.SPIKES, n=12, d=30, tail_value=2.0,
                     mean=2.5)

    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    def test_spawning_from_the_seed_changes_no_bit(self, basis):
        # spawn() counts its calls on the SeedSequence; the draw must not
        # read that count.
        spec = dataclasses.replace(self.SPEC, basis=basis)
        frame = frame_sample(spec, np.random.SeedSequence((5, 30, 1)))
        seed = np.random.SeedSequence((5, 30, 1))
        seed.spawn(3)
        spawned = frame_sample(spec, seed)
        assert np.array_equal(frame_factor(spawned), frame_factor(frame))
        assert np.array_equal(spawned.spikes, frame.spikes)
        assert np.array_equal(spawned.stiefel, frame.stiefel)

    def test_tuple_seed_is_its_seed_sequence(self):
        a = frame_sample(self.SPEC, (5, 30, 1))
        b = frame_sample(self.SPEC, np.random.SeedSequence((5, 30, 1)))
        assert np.array_equal(frame_factor(a), frame_factor(b))
        assert np.array_equal(a.ones, b.ones)

    @pytest.mark.parametrize("d", [30, 5], ids=["r-is-n", "nu0"])
    def test_zero_mean_draw_does_not_depend_on_the_basis(self, d):
        # U_m'1 is read only under a non-zero mean.
        frames = [
            frame_sample(dataclasses.replace(self.SPEC, d=d, basis=basis, mean=mean), 17)
            for mean in (0.0, 2.5)
            for basis in (CanonicalAxes(), RandomOrthogonal(seed=3), RandomOrthogonal(seed=4))
        ]
        zero, shifted = frames[:3], frames[3:]
        assert all(np.array_equal(frame_factor(f), frame_factor(zero[0])) for f in zero[1:])
        assert not any(np.array_equal(f.lead, shifted[0].lead) for f in shifted[1:])

    def test_mean_is_the_float_given(self):
        # A mean of 2.5 shifts the spike and mean columns of L; it is not
        # read as the zero-mean model.
        zero = frame_sample(dataclasses.replace(self.SPEC, mean=0.0), 17)
        shifted = frame_sample(self.SPEC, 17)
        assert np.array_equal(shifted.ones, zero.ones)
        assert not np.array_equal(shifted.lead, zero.lead)


class TestConcurrentDraws:
    # Each draw reads its seed alone, and the one-entry basis cache is
    # shared read-only: on three threads, with d alternating so that the
    # cache is replaced between calls, every draw has its serial bits.
    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    def test_threads_draw_the_serial_bits(self, basis, mean):
        from concurrent.futures import ThreadPoolExecutor

        specs = [
            SpikeSpec(spikes=TestFrameFactor.SPIKES, n=12, d=d, tail_value=2.0, basis=basis,
                      mean=mean)
            for d in (300, 301)
        ]

        def draw(k):
            spec = specs[k % 2]
            data = generate_sample(spec, (7, k))
            return data.values, data.latent, frame_factor(frame_sample(spec, (7, k)))

        serial = [draw(k) for k in range(12)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(draw, range(12)))
        for got, expected in zip(threaded, serial):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))


class TestFrame:
    """The frame's operator, trace and rotation, against dense oracles."""

    SPEC = SpikeSpec(spikes=(SpikeProfile.fixed(60.0), SpikeProfile.fixed(12.0)), n=5, d=9,
                     tail_value=1.5, basis=RandomOrthogonal(seed=3), mean=2.5)

    @pytest.mark.parametrize("d", [9, 6, 3], ids=["nu-above-n", "nu-below-n", "nu0"])
    def test_operator_and_trace_are_those_of_the_factor(self, d):
        frame = frame_sample(dataclasses.replace(self.SPEC, d=d), 1)
        f = frame_factor(frame)
        v = np.random.default_rng(0).standard_normal((5, 1))
        assert np.allclose(frame.matvec(v), (f @ f.T @ v).ravel(), rtol=1e-14, atol=0)
        assert frame.trace() == pytest.approx(np.trace(f @ f.T), rel=1e-14)

    def test_rotation_is_orthogonal_and_takes_h_to_ones(self):
        # At n - 1 <= 2m the frame maps n columns, so K itself is read back.
        frame = frame_sample(self.SPEC, 1)
        k = frame.to_observation(np.eye(5))
        assert np.allclose(k.T @ k, np.eye(5), rtol=0, atol=1e-14)
        assert np.allclose(k @ frame.ones, 1.0, rtol=0, atol=1e-14)

    def test_refuses_more_columns_than_its_stiefel_frame(self):
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(60.0),), n=8, d=9)
        frame = frame_sample(spec, 1)
        assert frame.to_observation(np.ones((8, 2))).shape == (8, 2)
        with pytest.raises(ValueError, match="at most 2 columns"):
            frame.to_observation(np.eye(8)[:, :3])

    @pytest.mark.parametrize("n, nu", [(8, 12), (10, 4)])
    def test_bidiagonal_has_the_wishart_spectrum(self, n, nu):
        # The largest and the smallest nonzero eigenvalue of BB' against those
        # of GG' for a dense n x nu Gaussian G (Dumitriu & Edelman).
        from scipy import stats

        spec = SpikeSpec(spikes=(SpikeProfile.fixed(1e6),), n=n, d=nu + 2)
        rng = np.random.default_rng(8)
        k, runs = min(n, nu), 2000
        tail, dense = [], []
        for seed in range(runs):
            b = frame_factor(frame_sample(spec, seed))[:, 2:]
            tail.append(np.linalg.eigvalsh(b @ b.T)[[-1, -k]])
            g = rng.standard_normal((n, nu))
            dense.append(np.linalg.eigvalsh(g @ g.T)[[-1, -k]])
        tail, dense = np.array(tail), np.array(dense)
        pvalues = [stats.ks_2samp(tail[:, i], dense[:, i]).pvalue for i in range(2)]
        assert min(pvalues) > 1e-3, pvalues


class TestPopulationProjection:
    @pytest.mark.parametrize("basis", [CanonicalAxes(), RandomOrthogonal(seed=3)],
                             ids=["canonical", "orthogonal"])
    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    def test_inverts_projection_scores(self, basis, mean):
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(60.0), SpikeProfile.fixed(12.0)), n=6,
                         d=50, basis=basis, mean=mean)
        data = generate_sample(spec, 4)
        proj = spike_projection(data)
        back = population_projection(spec, projection_scores(spec, proj))
        assert np.allclose(back, proj, rtol=1e-14, atol=1e-13)


class TestEnumDefaults:
    def test_defaults(self):
        spec = single_spike_spec()
        assert isinstance(spec.basis, CanonicalAxes)
        assert spec.mean == 0.0
        assert spec.m == 1
