"""Spiked-model resolution, generation, and population scores."""

import threading
import time
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
    projection_scores,
    sample_gram,
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
        s = population_scores(data)
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
        spec = single_spike_spec(d=80, n=7, mean=ConstantMean(3.0))
        data = generate_sample(spec, 44)
        s = population_scores(data)
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


class TestCanonicalGram:
    # One block, and three full blocks plus a 17-column remainder.
    @pytest.mark.parametrize("d", [400, 3 * spike_model.SAMPLE_BLOCK + 17])
    @pytest.mark.parametrize("mean", [ZeroMean(), ConstantMean(2.5)], ids=["zero", "constant"])
    @pytest.mark.parametrize("tail_value", [1.0, 2.0])
    def test_matches_the_generated_sample(self, d, mean, tail_value):
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(1.0, 1.4)),
            n=7,
            d=d,
            tail_value=tail_value,
            mean=mean,
        )
        seed = np.random.SeedSequence((5, d, 1))
        gram, proj = sample_gram(spec, seed)
        data = generate_sample(spec, seed)
        x = data.values
        assert np.array_equal(proj, spike_projection(data))
        expected = x.T @ x
        if d <= spike_model.SAMPLE_BLOCK:
            assert np.array_equal(gram, expected)
        else:
            # The block sums add in another order than the one product.
            assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("mean", [ZeroMean(), ConstantMean(-1.5)], ids=["zero", "constant"])
    def test_sample_is_the_scaled_block_stream(self, mean):
        # Reference: n x w blocks side by side, block k from the Philox
        # stream jumped k times, then the row scaling and the mean of the
        # model.
        block = spike_model.SAMPLE_BLOCK
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(1.0, 1.4)),
            n=3,
            d=2 * block + 5,
            tail_value=2.0,
            mean=mean,
        )
        z = np.hstack(
            [
                np.random.Generator(np.random.Philox(17).jumped(k)).standard_normal(
                    (3, min(block, spec.d - lo))
                )
                for k, lo in enumerate(range(0, spec.d, block))
            ]
        )
        scale = np.full(spec.d, np.sqrt(2.0))
        scale[:2] = np.sqrt(spec.spike_eigenvalues)
        data = generate_sample(spec, 17)
        assert np.array_equal(data.latent.spike, z[:, :2])
        assert np.array_equal(data.values, (z * scale + spec.mean_vector_value).T)


def with_draw_threads(threads, fn, *args):
    """fn(*args) with the process drawing column blocks on `threads` threads."""
    previous = spike_model.set_draw_threads(threads)
    try:
        return fn(*args)
    finally:
        spike_model.set_draw_threads(previous)


class TestThreadedDraw:
    # Three full blocks and a 17-column remainder.
    D = 3 * spike_model.SAMPLE_BLOCK + 17

    @pytest.mark.parametrize("threads", [2, 3])
    def test_blocks_in_flight_are_bounded_by_the_threads(self, threads):
        # Eight full blocks and a remainder: holding one block more per
        # block drawn, or queueing every block's Gram, would grow with d.
        n = 8
        spec = single_spike_spec(d=8 * spike_model.SAMPLE_BLOCK + 17, n=n)
        with_draw_threads(threads, sample_gram, spec, 1)  # imports the thread pool
        tracemalloc.start()
        try:
            gram, _ = with_draw_threads(threads, sample_gram, spec, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (threads + 1) * n * spike_model.SAMPLE_BLOCK * 8 + gram.nbytes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stream_is_the_raw_normal_draw(self, threads):
        # The stream knows nothing of the model: the tail, the mean and the
        # spikes leave its blocks the raw jumped Philox draws.
        block = spike_model.SAMPLE_BLOCK
        spec = single_spike_spec(d=2 * block + 5, n=3, tail_value=2.0, mean=ConstantMean(1.5))
        expected = [
            (lo, np.random.Generator(np.random.Philox(17).jumped(k)).standard_normal(
                (3, min(block, spec.d - lo))))
            for k, lo in enumerate(range(0, spec.d, block))
        ]
        got = with_draw_threads(
            threads, list, spike_model._normal_blocks(spec, 17, lambda lo, b: (lo, b.copy()))
        )
        assert [lo for lo, _ in got] == [lo for lo, _ in expected]
        assert all(np.array_equal(b, e) for (_, b), (_, e) in zip(got, expected))

    def test_a_reader_that_stops_early_leaves_no_block_being_drawn(self):
        # Past the first block each reduction takes a while, so blocks are
        # being drawn when the reader stops after one.
        spec = single_spike_spec(d=8 * spike_model.SAMPLE_BLOCK + 17, n=4)
        running = threading.active_count()
        started, finished = [], []

        def reduce(lo, block):
            started.append(lo)
            if lo:
                time.sleep(0.05)
            finished.append(lo)
            return lo

        previous = spike_model.set_draw_threads(2)
        try:
            blocks = spike_model._normal_blocks(spec, 1, reduce)
            assert next(blocks) == 0
            blocks.close()
        finally:
            spike_model.set_draw_threads(previous)
        assert sorted(finished) == sorted(started)
        assert len(started) <= 3  # the block read and at most one more per thread
        assert threading.active_count() == running

    @pytest.mark.parametrize("mean", [ZeroMean(), ConstantMean(2.5)], ids=["zero", "constant"])
    @pytest.mark.parametrize(
        "basis", [CanonicalAxes(), RandomOrthogonal(seed=3)], ids=["canonical", "orthogonal"]
    )
    def test_same_bits_at_any_thread_count(self, basis, mean, monkeypatch):
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(1.0, 1.4)),
            n=7,
            d=self.D,
            tail_value=2.0,
            basis=basis,
            mean=mean,
        )
        seed = np.random.SeedSequence((5, self.D, 4))
        running = threading.active_count()
        drawn_on = []
        real = spike_model._normal_blocks

        def spy(spec, seed, reduce):
            def traced(lo, block):
                drawn_on.append(threading.get_ident())
                return reduce(lo, block)

            return real(spec, seed, traced)

        monkeypatch.setattr(spike_model, "_normal_blocks", spy)
        gram, proj = with_draw_threads(1, sample_gram, spec, seed)
        data = with_draw_threads(1, generate_sample, spec, seed)
        assert set(drawn_on) == {threading.get_ident()}
        for threads in (2, 3):
            drawn_on.clear()
            threaded_gram, threaded_proj = with_draw_threads(threads, sample_gram, spec, seed)
            # Past one thread every block is drawn on a pool thread.
            assert len(drawn_on) == 4 and threading.get_ident() not in drawn_on
            assert np.array_equal(threaded_gram, gram)
            assert np.array_equal(threaded_proj, proj)
            threaded = with_draw_threads(threads, generate_sample, spec, seed)
            assert np.array_equal(threaded.values, data.values)
            assert np.array_equal(threaded.latent.spike, data.latent.spike)
        assert threading.active_count() == running  # no draw thread outlives its call

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_random_basis_holds_no_sample(self, threads):
        # Eight full blocks and a remainder: the n x d sample is four times
        # the bound at one thread and twice it at three.  U_m is built
        # first, as a sweep holds it cached.
        n = 8
        spec = single_spike_spec(
            d=8 * spike_model.SAMPLE_BLOCK + 17,
            n=n,
            basis=RandomOrthogonal(seed=5),
            mean=ConstantMean(1.5),
        )
        spike_model._spike_basis(spec)
        with_draw_threads(threads, sample_gram, spec, 1)  # imports the thread pool
        tracemalloc.start()
        try:
            gram, proj = with_draw_threads(threads, sample_gram, spec, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The n x m arrays: S, P, and one projection per block in flight.
        n_by_m = (threads + 2) * proj.nbytes
        assert peak < (threads + 1) * n * spike_model.SAMPLE_BLOCK * 8 + gram.nbytes + n_by_m

    def test_thread_count_must_be_positive(self):
        with pytest.raises(ValueError, match="draw threads must be >= 1"):
            spike_model.set_draw_threads(0)


class TestSampleGram:
    # Within one block the random-basis sample is drawn whole; its Gram and
    # P are the very products dual_pca and spike_projection form from it.
    @pytest.mark.parametrize("d", [5_000])
    @pytest.mark.parametrize("mean", [ZeroMean(), ConstantMean(2.5)], ids=["zero", "constant"])
    def test_random_basis_is_bitwise_the_sample_products(self, d, mean):
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(1.0, 1.4)),
            n=7,
            d=d,
            basis=RandomOrthogonal(seed=3),
            mean=mean,
        )
        seed = np.random.SeedSequence((5, d, 2))
        gram, proj = sample_gram(spec, seed)
        x = generate_sample(spec, seed).values
        assert np.array_equal(gram, x.T @ x)
        assert np.array_equal(proj, x.T @ basis_vectors(spec))

    # Past one block X'X and P are assembled from sums over the raw blocks,
    # which add in another order than the products of the whole sample.
    @pytest.mark.parametrize("mean", [ZeroMean(), ConstantMean(2.5)], ids=["zero", "constant"])
    def test_random_basis_past_one_block_matches_the_sample_products(self, mean):
        d = 3 * spike_model.SAMPLE_BLOCK + 17
        spec = SpikeSpec(
            spikes=(SpikeProfile.power(1.0, 1.6), SpikeProfile.power(1.0, 1.4)),
            n=7,
            d=d,
            tail_value=2.0,
            basis=RandomOrthogonal(seed=3),
            mean=mean,
        )
        seed = np.random.SeedSequence((5, d, 2))
        gram, proj = sample_gram(spec, seed)
        x = generate_sample(spec, seed).values
        for got, expected in ((gram, x.T @ x), (proj, x.T @ basis_vectors(spec))):
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestEnumDefaults:
    def test_defaults(self):
        spec = single_spike_spec()
        assert isinstance(spec.basis, CanonicalAxes)
        assert isinstance(spec.mean, ZeroMean)
        assert spec.mean_vector_value == 0.0
        assert spec.m == 1
