"""Spiked-model resolution, generation, and population scores."""

import tracemalloc

import numpy as np
import pytest

from spikescore import spike_model
from spikescore.spike_model import (
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
    spike_projection,
)


def single_spike_spec(d=200, n=10, exponent=1.6, **kwargs):
    return SpikeSpec(spikes=(SpikeProfile.power(1.0, exponent),), n=n, d=d, **kwargs)


class TestResolveEigenvalues:
    def test_power_law(self):
        spec = single_spike_spec(d=100, n=10, exponent=1.5)
        lam = resolve_eigenvalues(spec)
        assert lam[0] == pytest.approx(1000.0)  # 100**1.5
        assert np.all(lam[1:] == 1.0)
        assert lam.shape == (100,)

    def test_literal_passthrough(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(5.0), SpikeProfile.fixed(5.0)), n=3, d=4
        )
        assert np.array_equal(resolve_eigenvalues(spec), [5.0, 5.0, 1.0, 1.0])

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
        with pytest.raises(ValueError):
            SpikeProfile(scale=1.0, exponent=1.0, literal=2.0)
        with pytest.raises(ValueError):
            SpikeProfile()
        with pytest.raises(ValueError):
            SpikeProfile(scale=1.0)  # missing exponent

    def test_positivity(self):
        with pytest.raises(ValueError):
            SpikeProfile.power(-1.0, 1.0)
        with pytest.raises(ValueError):
            SpikeProfile.power(1.0, -0.5)
        with pytest.raises(ValueError):
            SpikeProfile.fixed(0.0)


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

    def test_d_less_than_n_allowed(self):
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(3),), n=50, d=5)
        assert spec.d == 5


class TestGeneration:
    def test_canonical_rows_are_scaled_latents(self):
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(9.0),), n=8, d=50)
        data = generate_sample(spec, 123)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(123)))
        z = rng.standard_normal((8, 50))
        assert np.array_equal(data.values[0], 3.0 * z[:, 0])
        assert np.array_equal(data.values[1], z[:, 1])
        assert np.array_equal(data.latent.spike[:, 0], z[:, 0])

    def test_deterministic_given_seed(self):
        spec = single_spike_spec()
        a = generate_sample(spec, 77)
        b = generate_sample(spec, 77)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.latent.spike, b.latent.spike)
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
        shifted = single_spike_spec(d=60, n=6, mean=ConstantMean(2.5))
        x0 = generate_sample(base, 9).values
        x1 = generate_sample(shifted, 9).values
        assert np.allclose(x1, x0 + 2.5, atol=0, rtol=0)

    def test_latent_keeps_only_spike_columns(self):
        small = generate_sample(single_spike_spec(d=600, n=4), 1)
        big = generate_sample(single_spike_spec(d=10_001, n=4), 1)
        assert small.latent.spike.shape == big.latent.spike.shape == (4, 1)

    @pytest.mark.parametrize(
        "basis, max_ratio, mean",
        [
            pytest.param(CanonicalAxes(), 1.5, ZeroMean(), id="basis0-1.5"),
            pytest.param(RandomOrthogonal(seed=6), 1.5, ZeroMean(), id="basis1-1.5"),
            pytest.param(CanonicalAxes(), 1.5, ConstantMean(2.0), id="canonical-mean"),
            pytest.param(RandomOrthogonal(seed=6), 1.5, ConstantMean(2.0), id="orthogonal-mean"),
        ],
    )
    def test_no_second_copy_of_the_draw(self, basis, max_ratio, mean):
        # The draw is scaled in place and is the sample on either basis;
        # the rank-m correction is added in blocks.  A kept copy of the
        # draw, a whole n x d correction, or a shifted copy for the mean
        # would add one more n x d array.  U_m is built first, as a sweep
        # holds it cached.
        spec = single_spike_spec(d=5_000, n=40, basis=basis, mean=mean)
        spike_model._spike_basis(spec)
        tracemalloc.start()
        try:
            data = generate_sample(spec, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < max_ratio * data.values.nbytes

    def test_mismatched_shapes_rejected(self):
        spec = single_spike_spec(d=20, n=4)
        latent = LatentScores(spike=np.zeros((4, 1)))
        with pytest.raises(ValueError, match="does not match spec"):
            DataMatrix(values=np.zeros((21, 4)), latent=latent, spec=spec)


class TestRandomOrthogonalBasis:
    def test_basis_orthonormal(self):
        spec = single_spike_spec(d=300, n=8, basis=RandomOrthogonal(seed=4))
        u = orthogonal_matrix(spec)
        assert np.allclose(u.T @ u, np.eye(300), atol=1e-10)

    def test_basis_vectors_match_full_matrix(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(50), SpikeProfile.fixed(10)),
            n=6,
            d=40,
            basis=RandomOrthogonal(seed=11),
        )
        u_full = orthogonal_matrix(spec)
        assert np.allclose(basis_vectors(spec), u_full[:, :2], atol=1e-12)

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
        u = orthogonal_matrix(spec)
        root_lam = np.sqrt(resolve_eigenvalues(spec))[:, None]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(123)))
        g = rng.standard_normal((spec.n, spec.d)).T
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

        base = spike_model._spike_basis(spec(3, 64))
        assert spike_model._spike_basis(spec(3, 64)) is base
        for other in (spec(4, 64), spec(3, 65)):
            u = spike_model._spike_basis(other)
            assert u is not base
            assert u.shape == (other.d, other.m)
        assert not np.array_equal(basis_vectors(spec(3, 64)), basis_vectors(spec(4, 64)))

    def test_refuses_huge_materialization(self):
        spec = single_spike_spec(d=10_050, n=4, basis=RandomOrthogonal(seed=0))
        with pytest.raises(ValueError, match="refusing"):
            orthogonal_matrix(spec)

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
        s = population_score_matrix(data)
        rel = np.abs(s - data.latent.spike) / np.abs(data.latent.spike)
        assert rel.max() < 1e-12

    def test_matches_latent_orthogonal(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(100), SpikeProfile.fixed(25)),
            n=9,
            d=400,
            basis=RandomOrthogonal(seed=8),
        )
        data = generate_sample(spec, 32)
        s = population_score_matrix(data)
        rel = np.abs(s - data.latent.spike) / np.maximum(np.abs(data.latent.spike), 1e-12)
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
        u = orthogonal_matrix(spec)
        expected = np.array(
            [[u[:, 0] @ data.values[:, i] / 4.0] for i in range(4)]
        )
        assert np.allclose(population_score_matrix(data), expected, atol=1e-12)

    def test_simple_division_example(self):
        # lambda_1 = 4, first row (2, -4, 6) => scores (1, -2, 3).
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(4.0),), n=3, d=5)
        data = generate_sample(spec, 1)
        values = data.values.copy()
        values[0] = [2.0, -4.0, 6.0]
        hacked = DataMatrix(values=values, latent=data.latent, spec=spec)
        assert np.allclose(population_score_matrix(hacked)[:, 0], [1.0, -2.0, 3.0])

    def test_constant_mean_is_removed(self):
        spec = single_spike_spec(d=80, n=7, mean=ConstantMean(3.0))
        data = generate_sample(spec, 44)
        s = population_score_matrix(data)
        assert np.allclose(s, data.latent.spike, atol=1e-10)


class TestSpikeProjection:
    @pytest.mark.parametrize(
        "spikes, basis, mean",
        [
            ((100.0,), CanonicalAxes(), ZeroMean()),
            ((100.0, 25.0), CanonicalAxes(), ZeroMean()),
            ((100.0, 25.0), RandomOrthogonal(seed=8), ZeroMean()),
            ((100.0, 25.0), CanonicalAxes(), ConstantMean(3.0)),
            ((100.0, 25.0), RandomOrthogonal(seed=8), ConstantMean(-1.5)),
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


class TestEnumDefaults:
    def test_defaults(self):
        spec = single_spike_spec()
        assert isinstance(spec.basis, CanonicalAxes)
        assert isinstance(spec.mean, ZeroMean)
        assert spec.mean_vector_value == 0.0
        assert spec.m == 1
