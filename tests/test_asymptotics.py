"""Score-ratio tables, the exact ratio decomposition, and eigen-diagnostics."""

import numpy as np
import pytest

from spikescore.asymptotics import (
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
from spikescore.pca_engine import PcaResult, dual_pca
from spikescore.spike_model import (
    DIAGNOSTIC_MAX_D,
    CanonicalAxes,
    ConstantMean,
    DataMatrix,
    LatentScores,
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    basis_vectors,
    generate_sample,
    population_score_matrix,
    resolve_eigenvalues,
)


def make_pca(loadings, eigenvalues, n=4, divisor=None):
    """Hand-built PcaResult for the loading-based diagnostics."""
    loadings = np.asarray(loadings, dtype=float)
    d, r = loadings.shape
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    return PcaResult(
        sample_eigenvalues=eigenvalues,
        score_vectors=np.eye(n, r),
        divisor=float(divisor if divisor is not None else n),
        centered=False,
        n=n,
        d=d,
        loadings=loadings,
        loading_valid=np.ones(r, dtype=bool),
    )


def single_spike_data(d=500, n=10, exponent=1.6, seed=5, **kwargs):
    spec = SpikeSpec(spikes=(SpikeProfile.power(1.0, exponent),), n=n, d=d, **kwargs)
    data = generate_sample(spec, seed)
    return spec, data, dual_pca(data.values, rank=spec.m)


class TestScoreRatioTable:
    def test_identity_ratios(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.5, 2.0, size=(8, 3)) * rng.choice([-1, 1], size=(8, 3))
        table = score_ratio_table(s, s)
        assert np.allclose(table.ratios, 1.0)
        assert np.allclose(table.medians, 1.0)
        assert np.allclose(table.rel_spreads, 0.0, atol=1e-15)
        assert not table.excluded
        assert not table.degenerate.any()

    def test_common_scaling(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0.5, 2.0, size=(6, 2))
        table = score_ratio_table(2.0 * s, s)
        assert np.allclose(table.ratios, 2.0)
        assert np.allclose(table.medians, 2.0)
        assert np.allclose(table.means, 2.0)

    def test_guard_exclusion(self):
        s = np.full((5, 1), 1.0)
        s[2, 0] = 1e-12
        table = score_ratio_table(np.ones((5, 1)), s, guard=1e-8)
        assert np.isnan(table.ratios[2, 0])
        assert (2, 0) in table.excluded
        assert table.n_excluded[0] == 1
        assert not table.degenerate[0]
        assert table.medians[0] == pytest.approx(1.0)

    def test_degenerate_column_suppressed(self):
        s = np.full((5, 1), 1e-12)
        s[0, 0] = 1.0
        s[1, 0] = 1.0
        table = score_ratio_table(np.ones((5, 1)), s)
        assert table.degenerate[0]
        assert table.n_excluded[0] == 3
        assert np.isnan(table.medians[0])
        assert np.isnan(table.rel_spreads[0])

    def test_statistics_recomputable(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((30, 2))
        s_hat = s * rng.uniform(0.8, 1.2, size=s.shape)
        table = score_ratio_table(s_hat, s)
        for j in range(2):
            col = table.ratios[:, j]
            col = col[np.isfinite(col)]
            assert table.medians[j] == pytest.approx(np.median(col), rel=1e-12)
            assert table.means[j] == pytest.approx(col.mean(), rel=1e-12)
            spread = (col.max() - col.min()) / np.median(col)
            assert table.rel_spreads[j] == pytest.approx(spread, rel=1e-12)

    def test_sign_irrelevant(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((12, 1)) + 2.0
        s_hat = rng.standard_normal((12, 1)) + 2.0
        a = score_ratio_table(s_hat, s)
        b = score_ratio_table(-s_hat, s)
        assert np.array_equal(a.ratios, b.ratios)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            score_ratio_table(np.ones((3, 1)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="guard"):
            score_ratio_table(np.ones((3, 1)), np.ones((3, 1)), guard=0.0)


class TestEigenvalueRatio:
    def test_trivial(self):
        pca = make_pca(np.eye(3, 2), [4.0, 2.0])
        assert eigenvalue_ratio(pca, [4.0, 2.0], 0) == pytest.approx(1.0)
        assert eigenvalue_ratio(pca, [8.0, 2.0], 0) == pytest.approx(0.5)

    def test_validation(self):
        pca = make_pca(np.eye(3, 2), [4.0, 2.0])
        with pytest.raises(ValueError):
            eigenvalue_ratio(pca, [4.0], 1)
        with pytest.raises(ValueError):
            eigenvalue_ratio(pca, [0.0, 1.0], 0)
        with pytest.raises(ValueError):
            eigenvalue_ratio(pca, [4.0, 2.0], 5)


class TestAngles:
    def test_aligned_is_zero(self):
        pca = make_pca(np.eye(5, 1), [3.0])
        basis = np.eye(5, 1)
        assert angle_to_population(pca, basis, 0) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_right_angle(self):
        loadings = np.zeros((5, 1))
        loadings[1, 0] = 1.0
        pca = make_pca(loadings, [3.0])
        basis = np.eye(5, 1)
        assert angle_to_population(pca, basis, 0) == pytest.approx(np.pi / 2)

    def test_decreases_with_dimension(self):
        means = []
        for d in (300, 3000):
            angles = []
            for seed in range(30):
                pca, basis, x = _pca_and_basis(d, seed)
                angles.append(angle_to_population(pca, basis, 0, x=x))
            means.append(np.mean(angles))
        assert means[1] < means[0]


def _pca_and_basis(d, seed, n=10):
    spec = SpikeSpec(spikes=(SpikeProfile.power(1.0, 1.6),), n=n, d=d)
    data = generate_sample(spec, (800, d, seed))
    pca = dual_pca(data.values, rank=1)
    return pca, basis_vectors(spec), data.values


class TestCrossSpikeOverlap:
    def test_exact_cases(self):
        # u_hat_0 equals the second population direction, equal eigenvalues.
        loadings = np.zeros((6, 1))
        loadings[1, 0] = 1.0
        pca = make_pca(loadings, [4.0])
        basis = np.eye(6, 2)
        assert cross_spike_overlap(pca, basis, [4.0, 4.0], 0, 1) == pytest.approx(1.0)
        # orthogonal to the other spike -> 0
        pca2 = make_pca(np.eye(6, 1), [4.0])
        assert cross_spike_overlap(pca2, basis, [4.0, 4.0], 0, 1) == pytest.approx(0.0)

    def test_rejects_equal_indices(self):
        pca = make_pca(np.eye(4, 2), [2.0, 1.0])
        with pytest.raises(ValueError):
            cross_spike_overlap(pca, np.eye(4, 2), [2.0, 1.0], 1, 1)

    def test_decreases_with_dimension(self):
        means = []
        for d in (300, 3000):
            vals = []
            for seed in range(25):
                spec = SpikeSpec(
                    spikes=(SpikeProfile.power(1.0, 1.8), SpikeProfile.power(1.0, 1.4)),
                    n=20,
                    d=d,
                )
                data = generate_sample(spec, (801, d, seed))
                pca = dual_pca(data.values, rank=2)
                lam = resolve_eigenvalues(spec)[:2]
                vals.append(
                    cross_spike_overlap(
                        pca, basis_vectors(spec), lam, 0, 1, x=data.values
                    )
                )
            means.append(np.mean(vals))
        assert means[1] < means[0]


class TestTailLeakage:
    def test_inside_span_is_zero(self):
        pca = make_pca(np.eye(6, 1), [2.0])
        assert tail_leakage(pca, np.eye(6, 2), 0) == pytest.approx(0.0, abs=1e-12)

    def test_outside_span_is_one(self):
        loadings = np.zeros((6, 1))
        loadings[5, 0] = 1.0
        pca = make_pca(loadings, [2.0])
        assert tail_leakage(pca, np.eye(6, 2), 0) == pytest.approx(1.0)

    def test_complement_identity(self):
        spec, data, pca = single_spike_data(d=400, n=8, seed=6)
        basis = basis_vectors(spec)
        leak = tail_leakage(pca, basis, 0, x=data.values)
        overlaps = spike_overlaps(pca, basis, x=data.values)[0]
        assert leak + overlaps @ overlaps == pytest.approx(1.0, abs=1e-10)
        assert -1e-10 <= leak <= 1.0


class TestSpikeDiagnostics:
    def test_matches_per_entry_formulas(self):
        # Bitwise against the scalar formulas, including an overlap above 1
        # from rounding and a NaN row from a zero sample eigenvalue, whose
        # angle is NaN, not the 0 of perfect alignment.
        rng = np.random.default_rng(5)
        o = rng.uniform(-1.0, 1.0, size=(3, 3))
        o[0, 0] = 1.0 + 1e-15
        o[2] = np.nan
        lam = np.array([9.0, 5.0, 2.0, 1.0])
        w = np.array([8.5, 4.0, 0.0])
        out = spike_diagnostics(o, lam, w)
        for j in range(3):
            row = o[j]
            angle = np.nan if np.isnan(row[j]) else np.arccos(min(1.0, abs(row[j])))
            np.testing.assert_array_equal(out.angles[j], angle)
            assert out.eig_ratios[j] == w[j] / lam[j]
            np.testing.assert_array_equal(out.leakage[j], 1.0 - row @ row)
            for k in range(3):
                np.testing.assert_array_equal(
                    out.cross_overlaps[j, k], np.sqrt(lam[k] / lam[j]) * abs(row[k])
                )

    def test_rectangular_and_validation(self):
        o = np.array([[0.6, 0.8, 0.0]])
        out = spike_diagnostics(o, [3.0, 2.0, 1.0], [2.5])
        assert out.angles.shape == (1,) and out.leakage.shape == (1,)
        assert out.cross_overlaps.shape == (1, 3)
        assert out.leakage[0] == pytest.approx(0.0, abs=1e-15)
        for lam, w in (([3.0, 2.0], [2.5]), ([3.0, 2.0, 1.0], [])):
            with pytest.raises(ValueError, match="eigenvalues"):
                spike_diagnostics(o, lam, w)


class TestSpikeOverlaps:
    def test_dual_route_matches_loadings_route(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(200.0), SpikeProfile.fixed(50.0)),
            n=9,
            d=150,
            basis=RandomOrthogonal(seed=2),
        )
        data = generate_sample(spec, 99)
        basis = basis_vectors(spec)
        with_loadings = dual_pca(data.values, rank=2, want_loadings=True)
        without = dual_pca(data.values, rank=2)
        a = spike_overlaps(with_loadings, basis)
        b = spike_overlaps(without, basis, x=data.values)
        assert np.allclose(a, b, atol=1e-10)

    def test_dual_route_respects_centering(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 7)) + 5.0
        basis = np.eye(40, 2)
        with_loadings = dual_pca(x, center=True, want_loadings=True, rank=3)
        without = dual_pca(x, center=True, rank=3)
        assert np.allclose(
            spike_overlaps(with_loadings, basis),
            spike_overlaps(without, basis, x=x),
            atol=1e-10,
        )

    def test_requires_x_without_loadings(self):
        spec, data, pca = single_spike_data(d=100, n=6)
        with pytest.raises(ValueError, match="dual-form"):
            spike_overlaps(pca, basis_vectors(spec))


class TestRatioDecomposition:
    def test_rank_one_toy_has_no_cross_or_noise(self):
        # X built from a single spike with the tail latents zeroed: the
        # decomposition collapses to its signal term.
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(9.0),), n=2, d=3)
        z = np.zeros((2, 3))
        z[:, 0] = [1.0, -2.0]
        values = np.zeros((3, 2))
        values[0] = 3.0 * z[:, 0]
        latent = LatentScores(spike=z[:, :1].copy())
        data = DataMatrix(values=values, latent=latent, spec=spec)
        pca = dual_pca(values, rank=1)
        dec = ratio_decomposition(data, pca, 0, 0)
        assert dec.cross_spike == 0.0
        assert dec.noise == 0.0
        assert dec.total == pytest.approx(dec.signal, rel=1e-12)
        assert dec.noise_bound == 0.0

    def test_identity_on_generated_data(self):
        spec, data, pca = single_spike_data(d=500, n=10, seed=7)
        for i in range(10):
            if abs(data.latent.spike[i, 0]) < 1e-8:
                continue
            dec = ratio_decomposition(data, pca, i, 0)
            total = dec.signal + dec.cross_spike + dec.noise
            assert total == pytest.approx(dec.total, rel=1e-10)
            assert abs(dec.noise) <= dec.noise_bound + 1e-15

    def test_identity_with_rotation_and_two_spikes(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.7), SpikeProfile.power(1.0, 1.3)),
            n=12,
            d=800,
            basis=RandomOrthogonal(seed=5),
        )
        data = generate_sample(spec, 17)
        pca = dual_pca(data.values, rank=2, want_loadings=True)
        plain = dual_pca(data.values, rank=2)
        for j in (0, 1):
            dec = ratio_decomposition(data, pca, 3, j)
            total = dec.signal + dec.cross_spike + dec.noise
            assert total == pytest.approx(dec.total, rel=1e-10)
            # One route for u_hat_j: stored loadings do not change a bit.
            assert dec == ratio_decomposition(data, plain, 3, j)

    def test_noise_shrinks_with_dimension(self):
        means = []
        for d in (500, 5000):
            noises = []
            for seed in range(40):
                spec, data, pca = single_spike_data(d=d, n=10, seed=(900, d, seed))
                for i in range(10):
                    if abs(data.latent.spike[i, 0]) < 1e-8:
                        continue
                    noises.append(abs(ratio_decomposition(data, pca, i, 0).noise))
            means.append(np.mean(noises))
        assert means[1] < means[0]

    def test_median_consistent_with_signal(self):
        # With one spike each cell is |signal + noise_i|, so the column
        # median sits within max_i |noise_i| of |signal|.
        spec, data, pca = single_spike_data(d=2000, n=10, seed=15)
        s_hat = comparable_sample_scores(pca, 1)
        s_pop = population_score_matrix(data)
        table = score_ratio_table(s_hat, s_pop)
        decs = [ratio_decomposition(data, pca, i, 0) for i in range(10)]
        median = table.medians[0]
        signal = abs(decs[0].signal)
        worst_noise = max(d.noise_bound for d in decs)
        assert abs(median - signal) <= worst_noise
        assert table.rel_spreads[0] < 0.1

    @pytest.mark.parametrize("basis", [CanonicalAxes(), RandomOrthogonal(seed=9)])
    def test_identity_and_bound_above_diagnostic_max_d(self, basis):
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.4), SpikeProfile.power(1.0, 1.2)),
            n=12,
            d=DIAGNOSTIC_MAX_D * 2,
            basis=basis,
        )
        data = generate_sample(spec, 23)
        pca = dual_pca(data.values, rank=2)
        for i in range(spec.n):
            for j in (0, 1):
                if abs(data.latent.spike[i, j]) < 1e-8:
                    continue
                dec = ratio_decomposition(data, pca, i, j)
                total = dec.signal + dec.cross_spike + dec.noise
                assert total == pytest.approx(dec.total, rel=1e-10)
                assert abs(dec.noise) <= dec.noise_bound

    def test_requires_zero_mean_model(self):
        spec = SpikeSpec(
            spikes=(SpikeProfile.fixed(9.0),), n=4, d=20, mean=ConstantMean(1.0)
        )
        data = generate_sample(spec, 3)
        pca = dual_pca(data.values, rank=1)
        with pytest.raises(ValueError, match="zero-mean"):
            ratio_decomposition(data, pca, 0, 0)

    def test_requires_uncentered_pca(self):
        # The terms project the raw x_i; a centered PCA's total is a ratio
        # of centered scores, which they would not add up to.
        spec, data, _ = single_spike_data(d=500, n=10, seed=7)
        centered = dual_pca(data.values, rank=1, center=True)
        with pytest.raises(ValueError, match="uncentered"):
            ratio_decomposition(data, centered, 0, 0)

    def test_guard_on_tiny_denominator(self):
        # Coordinate 0 of observation 1 at sqrt(lambda_1) * 1e-12 puts
        # z_{1,0} at 1e-12.
        spec = SpikeSpec(spikes=(SpikeProfile.fixed(9.0),), n=4, d=20)
        data = generate_sample(spec, 3)
        values = data.values.copy()
        values[0, 1] = 3.0 * 1e-12
        patched = DataMatrix(values=values, latent=data.latent, spec=spec)
        pca = dual_pca(values, rank=1)
        with pytest.raises(ValueError, match="guard"):
            ratio_decomposition(patched, pca, 1, 0)


class TestComparableScores:
    def test_rescaled_by_sqrt_divisor(self):
        spec, data, pca = single_spike_data(d=120, n=9)
        s = comparable_sample_scores(pca, 1)
        assert np.allclose(s, 3.0 * pca.score_vectors[:, :1])  # sqrt(9)
