"""Dual-route PCA against direct eigendecomposition oracles."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from spikescore.asymptotics import comparable_sample_scores, projection_overlaps
from spikescore.pca_engine import (
    ZERO_EIGENVALUE_RTOL,
    PcaResult,
    _leading_pairs,
    dual_pca,
    frame_pca,
    load_matrix_csv,
    loading_norms,
)
from spikescore.spike_model import (
    RandomOrthogonal,
    SpikeProfile,
    SpikeSpec,
    frame_sample,
    generate_sample,
)


def direct_eigen(x, center, div):
    """Oracle: eigendecomposition of the explicitly formed d x d covariance."""
    xc = x - x.mean(axis=1, keepdims=True) if center else x
    sigma = xc @ xc.T / div
    w, u = np.linalg.eigh(sigma)
    return w[::-1], u[:, ::-1]


def explicit_loadings(x, res):
    """Dense oracle: the unit loadings X_c v_j / ||X_c v_j||, formed in d-space."""
    xc = x - x.mean(axis=1, keepdims=True) if res.centered else x
    u = xc @ res.score_vectors
    return u / np.linalg.norm(u, axis=0)


class TestToyCases:
    def test_single_column(self):
        x = np.array([[3.0], [0.0], [0.0]])
        res = dual_pca(x)  # divisor n = 1
        assert res.sample_eigenvalues[0] == pytest.approx(9.0, abs=1e-12)
        assert abs(res.score_vectors[0, 0]) == pytest.approx(1.0, abs=1e-12)
        loading = (x @ res.score_vectors[:, 0]) / loading_norms(res)[0]
        assert np.allclose(np.abs(loading), [1.0, 0.0, 0.0], atol=1e-12)

    def test_identity_2x2(self):
        res = dual_pca(np.eye(2), divisor=2)
        assert np.allclose(res.sample_eigenvalues, [0.5, 0.5], atol=1e-14)

    def test_score_extraction(self):
        rng = np.random.default_rng(0)
        res = dual_pca(rng.standard_normal((12, 5)))
        s = comparable_sample_scores(res, res.rank)
        assert np.array_equal(s, np.sqrt(5.0) * res.score_vectors)
        assert np.allclose(np.linalg.norm(s, axis=0), np.sqrt(5.0), atol=1e-12)
        for m in (0, res.rank + 1):
            with pytest.raises(ValueError, match=r"m must be in \[1, 5\]"):
                comparable_sample_scores(res, m)


class TestDualVsDirectOracle:
    def test_random_matrices(self):
        rng = np.random.default_rng(4242)
        for _ in range(40):
            d = int(rng.integers(1, 31))
            n = int(rng.integers(1, 11))
            x = rng.standard_normal((d, n)) * rng.uniform(0.5, 3.0)
            center = bool(rng.integers(0, 2))
            divisor = "n-1" if (rng.integers(0, 2) and n > 1) else "n"
            res = dual_pca(x, center=center, divisor=divisor)
            div = n - 1 if divisor == "n-1" else n
            w_direct, u_direct = direct_eigen(x, center, div)
            zero_tol = 1e-12 * max(res.sample_eigenvalues[0], 1e-300)
            for j in range(res.rank):
                wj = res.sample_eigenvalues[j]
                if wj <= zero_tol:
                    continue
                assert abs(wj - w_direct[j]) / wj < 1e-9
                uj = explicit_loadings(x, res)[:, j]
                diff = min(
                    np.linalg.norm(uj - u_direct[:, j]),
                    np.linalg.norm(uj + u_direct[:, j]),
                )
                assert diff < 1e-8


class TestResultInvariants:
    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 8))
        res = dual_pca(x)
        v = res.score_vectors
        u = explicit_loadings(x, res)
        assert np.allclose(v.T @ v, np.eye(res.rank), atol=1e-10)
        assert np.allclose(u.T @ u, np.eye(res.rank), atol=1e-10)
        recon = (u * np.sqrt(res.sample_eigenvalues)) @ v.T
        target = x / np.sqrt(8)
        err = np.linalg.norm(recon - target) / np.linalg.norm(target)
        assert err < 1e-9

    def test_eigenvalues_non_increasing_and_nonnegative(self):
        rng = np.random.default_rng(8)
        res = dual_pca(rng.standard_normal((6, 9)))
        w = res.sample_eigenvalues
        assert np.all(np.diff(w) <= 0)
        assert np.all(w >= 0)

    def test_location_invariance_with_centering(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((25, 7))
        shift = rng.uniform(-5, 5, size=(25, 1))
        a = dual_pca(x, center=True, divisor="n-1")
        b = dual_pca(x + shift, center=True, divisor="n-1")
        top = a.sample_eigenvalues[0]
        assert np.allclose(a.sample_eigenvalues, b.sample_eigenvalues, atol=1e-9 * top)
        keep = a.sample_eigenvalues > 1e-9 * top
        assert np.allclose(
            a.score_vectors[:, keep], b.score_vectors[:, keep], atol=1e-9
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((15, 6))
        alpha = 2.5
        a = dual_pca(x)
        b = dual_pca(alpha * x)
        assert np.allclose(b.sample_eigenvalues, alpha**2 * a.sample_eigenvalues, rtol=1e-12)
        assert np.allclose(b.score_vectors, a.score_vectors, atol=1e-12)

    def test_deterministic_output(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 6))
        a = dual_pca(x)
        b = dual_pca(x)
        assert np.array_equal(a.sample_eigenvalues, b.sample_eigenvalues)
        assert np.array_equal(a.score_vectors, b.score_vectors)

    def test_sign_convention_first_nonzero_positive(self):
        rng = np.random.default_rng(12)
        res = dual_pca(rng.standard_normal((20, 6)))
        for j in range(res.rank):
            col = res.score_vectors[:, j]
            first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert first > 0

    def test_rank_truncation_matches_leading_components(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((50, 9))
        full = dual_pca(x)
        part = dual_pca(x, rank=3)
        assert part.rank == 3
        assert np.allclose(
            part.sample_eigenvalues, full.sample_eigenvalues[:3], rtol=1e-8
        )
        for j in range(3):
            dot = abs(part.score_vectors[:, j] @ full.score_vectors[:, j])
            assert dot == pytest.approx(1.0, abs=1e-8)


def gram_eigh(x, center, rank):
    """Oracle for the Lanczos path: np.linalg.eigh of the same Gram."""
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True) if center else x
    g = xc.T @ xc / n
    w, v = np.linalg.eigh((g + g.T) * 0.5)
    return w[::-1][:rank], v[:, ::-1][:, :rank]


def assert_matches_gram_eigh(x, rank, center=False, eig_atol=1e-14, span_atol=1e-10):
    """Eigenvalues agree to eig_atol x the top one (the backward error of
    either solver), and the spans agree, compared by their projectors."""
    res = dual_pca(x, rank=rank, center=center)
    w, v = gram_eigh(x, center, rank)
    assert res.rank == rank
    assert np.allclose(res.sample_eigenvalues, np.maximum(w, 0), rtol=0, atol=eig_atol * w[0])
    p_res = res.score_vectors @ res.score_vectors.T
    assert np.allclose(p_res, v @ v.T, rtol=0, atol=span_atol)
    again = dual_pca(x, rank=rank, center=center)
    assert np.array_equal(again.sample_eigenvalues, res.sample_eigenvalues)
    assert np.array_equal(again.score_vectors, res.score_vectors)
    return res


class TestLanczosPath:
    """rank < n takes the leading pairs from eigsh; the reference is
    np.linalg.eigh of the same Gram.  Each check also asserts that two calls
    are bitwise equal."""

    def test_centered_gram_with_ones_in_null_space(self):
        x = np.random.default_rng(20).standard_normal((200, 50)) + 3.0
        res = assert_matches_gram_eigh(x, 2, center=True)
        assert np.allclose(res.score_vectors.sum(axis=0), 0.0, atol=1e-12)

    def test_rank_n_minus_one(self):
        x = np.random.default_rng(21).standard_normal((60, 20))
        assert_matches_gram_eigh(x, 19)
        assert_matches_gram_eigh(x, 19, center=True)

    def test_fewer_dimensions_than_samples(self):
        # d < n: the Gram has rank d and n - d zero eigenvalues.
        x = np.random.default_rng(22).standard_normal((5, 40))
        assert_matches_gram_eigh(x, 5)
        assert_matches_gram_eigh(x, 3, center=True)

    def test_repeated_top_eigenvalue(self):
        # x = U diag(s) V' with s_1 = s_2: the top eigenspace has dimension 2,
        # so only its projector, not its basis, is defined.
        rng = np.random.default_rng(23)
        d, n = 30, 20
        u, _ = np.linalg.qr(rng.standard_normal((d, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.concatenate([[3.0, 3.0], np.linspace(1.5, 0.1, n - 2)])
        x = (u * s) @ v.T
        res = assert_matches_gram_eigh(x, 2)
        assert np.allclose(res.sample_eigenvalues, 9.0 / n, rtol=1e-13)
        assert_matches_gram_eigh(x, 3)

    @pytest.mark.parametrize("ratio", [1e12, 1e13, 1e14])
    def test_strongly_spiked_gram(self, ratio):
        # lambda_1 / lambda_2 = ratio: both solvers carry an absolute error
        # of order eps * lambda_1, so eigenvalues are compared on that scale
        # and the top-2 spans up to the first-order perturbation bound
        # eps * lambda_1 / (lambda_2 - lambda_3).
        rng = np.random.default_rng(24)
        lam = np.ones(500)
        lam[1] = 50.0
        lam[0] = ratio * lam[1]
        x = np.sqrt(lam)[:, None] * rng.standard_normal((500, 40))
        w, v = gram_eigh(x, False, 3)
        bound = np.finfo(float).eps * w[0] / (w[1] - w[2])
        res = assert_matches_gram_eigh(x, 2, span_atol=bound)
        assert res.sample_eigenvalues[0] == pytest.approx(w[0], rel=1e-14)
        assert abs(res.score_vectors[:, 0] @ v[:, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_zero_gram(self):
        # Constant data, centered, has a zero Gram, on which Lanczos cannot
        # start; the result is all-zero eigenvalues and orthonormal scores.
        res = dual_pca(np.full((8, 6), 2.5), rank=2, center=True)
        assert np.array_equal(res.sample_eigenvalues, np.zeros(2))
        assert np.allclose(res.score_vectors.T @ res.score_vectors, np.eye(2))


class TestFramePca:
    """frame_pca decomposes the frame's O(n m) operator A / n and carries
    the score vectors and population scores back by one K."""

    SPIKES = (SpikeProfile.fixed(400.0), SpikeProfile.fixed(60.0))
    SPEC = SpikeSpec(spikes=SPIKES, n=30, d=45, tail_value=1.5, basis=RandomOrthogonal(seed=3),
                     mean=2.5)

    @staticmethod
    def dense_a(frame):
        n, r, s = frame.n, frame.tail_diag.size, frame.tail_sub.size
        b = np.zeros((n, r))
        b[np.arange(r), np.arange(r)] = frame.tail_diag
        b[np.arange(1, s + 1), np.arange(s)] = frame.tail_sub
        return b @ b.T + frame.lead @ frame.lead.T

    @pytest.mark.parametrize("mean", [0.0, 2.5], ids=["zero", "constant"])
    @pytest.mark.parametrize("d", [45, 8, 3], ids=["nu-above-n", "d-below-n", "nu0"])
    def test_matches_eigh_of_the_dense_operator(self, d, mean):
        spec = dataclasses.replace(self.SPEC, d=d, mean=mean)
        frame = frame_sample(spec, 11)
        res, scores = frame_pca(frame)
        w, v = np.linalg.eigh(self.dense_a(frame) / 30)
        assert np.allclose(res.sample_eigenvalues, w[::-1][:2], rtol=1e-13, atol=0)
        assert (res.divisor, res.centered, res.n, res.d, res.rank) == (30.0, False, 30, d, 2)
        assert np.allclose(res.score_vectors.T @ res.score_vectors, np.eye(2), atol=1e-14)
        # K is orthogonal, so the inner products of V and S are those of V~
        # and S~, up to the signs of V~.
        cross = res.score_vectors.T @ scores
        expected = v[:, ::-1][:, :2].T @ frame.spikes
        assert np.allclose(np.abs(cross), np.abs(expected), rtol=0, atol=1e-12)
        assert np.allclose(scores.T @ scores, frame.spikes.T @ frame.spikes, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_refuses_a_non_finite_or_zero_trace(self, bad):
        frame = frame_sample(self.SPEC, 11)
        if bad == 0.0:  # A = 0
            broken = dataclasses.replace(frame, lead=0.0 * frame.lead,
                                         tail_diag=0.0 * frame.tail_diag,
                                         tail_sub=0.0 * frame.tail_sub)
        else:
            lead = frame.lead.copy()
            lead[3, 1] = bad
            broken = dataclasses.replace(frame, lead=lead)
        with pytest.raises(ValueError, match="NaN or Inf"):
            frame_pca(broken)


class TestKrylovSize:
    """Lanczos builds 2 rank + 1 vectors: a spiked spectrum converges in the
    first factorization, and a flat one, which restarts more often, still
    converges to the eigh reference."""

    def test_spiked_sample_takes_two_rank_plus_two_steps(self):
        # A growing-n sample at n = d = 400, with that sweep's
        # spikes power:2:2,power:1:2.
        n, rank = 400, 2
        spikes = (SpikeProfile(scale=2.0, exponent=2.0), SpikeProfile(scale=1.0, exponent=2.0))
        x = generate_sample(SpikeSpec(spikes=spikes, n=n, d=n), 7).values
        calls = []

        def matvec(v):
            calls.append(1)
            return x.T @ (x @ v) / n

        op = LinearOperator((n, n), matvec=matvec, dtype=float)
        w, v = _leading_pairs(op, n, rank)
        assert len(calls) <= 2 * rank + 2
        ref_w, ref_v = gram_eigh(x, False, rank)
        assert np.allclose(w[::-1], ref_w, rtol=0, atol=1e-14 * ref_w[0])
        assert np.allclose(v @ v.T, ref_v @ ref_v.T, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_flat_spectrum_converges_on_both_routes(self, rank):
        # Pure noise: no eigenvalue stands above the bulk, so ARPACK restarts.
        # Both the sample at n = d = 400 and the 150 x 60 one must converge
        # with no ArpackNoConvergence or warning.
        x = np.random.default_rng(34).standard_normal((400, 400))
        y = np.random.default_rng(35).standard_normal((150, 60))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [(dual_pca(x, rank=rank), x.T @ x / 400),
                       (dual_pca(y, rank=rank), y.T @ y / 60)]
        for res, g in results:
            w = np.linalg.eigvalsh(g)[::-1][:rank]
            v = np.linalg.eigh(g)[1][:, ::-1][:, :rank]
            assert np.allclose(res.sample_eigenvalues, w, rtol=1e-12, atol=0)
            p_res = res.score_vectors @ res.score_vectors.T
            assert np.allclose(p_res, v @ v.T, rtol=0, atol=1e-10)


def first_nonzero_positive(v):
    """Columns of v flipped so that each one's first entry above 1e-12 in
    magnitude is positive."""
    first = v[np.argmax(np.abs(v) > 1e-12, axis=0), np.arange(v.shape[1])]
    return v * np.where(first < 0, -1.0, 1.0)


class TestDualPcaGram:
    """dual_pca divides its Gram in place and decomposes it: one n x n array."""

    def test_holds_one_n_by_n_array(self):
        # A two-spike sample at n = d = 400, as a growing-n replicate draws it.
        n = 400
        x = np.random.default_rng(30).standard_normal((n, n))
        x[:2] *= [[40.0], [20.0]]
        dual_pca(x, rank=2)  # imports the eigensolver
        tracemalloc.start()
        try:
            res = dual_pca(x, rank=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n
        assert res.rank == 2

    @pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
    @pytest.mark.parametrize("divisor", ["n", "n-1", 7.5])
    @pytest.mark.parametrize("shape", [(500, 40), (12, 30)], ids=["d-above-n", "d-below-n"])
    def test_is_the_decomposition_of_the_divided_gram(self, shape, divisor, center):
        # The same bits as _leading_pairs (rank < n) or eigh (rank = n) of
        # (X_c'X_c) / divisor, formed out of place.
        d, n = shape
        x = np.random.default_rng(32).standard_normal(shape)
        x[:2] *= [[30.0], [10.0]]
        xc = x - x.mean(axis=1, keepdims=True) if center else x
        div = {"n": n, "n-1": n - 1}.get(divisor, divisor)
        g = xc.T @ xc / div
        for rank in (2, min(n, d)):
            res = dual_pca(x, center=center, divisor=divisor, rank=rank)
            if rank < n:
                w, v = _leading_pairs(g, n, rank)
            else:
                w, v = np.linalg.eigh(g)
                w, v = w[n - rank :], v[:, n - rank :]
            assert np.array_equal(res.sample_eigenvalues, np.maximum(w[::-1], 0.0))
            assert np.array_equal(res.score_vectors, first_nonzero_positive(v[:, ::-1]))
            assert (res.divisor, res.centered, res.n, res.d) == (div, center, n, d)

    @pytest.mark.parametrize("center", [False, True], ids=["raw", "centered"])
    def test_input_is_left_as_it_is(self, center):
        x = np.random.default_rng(33).standard_normal((10, 6)) + 2.0
        for sample in (x, np.asfortranarray(x)):
            before = sample.copy()
            dual_pca(sample, center=center, rank=2)
            dual_pca(sample, center=center)
            assert np.array_equal(sample, before)


class TestEdgeCases:
    def test_zero_eigenvalue_loading_flagged_absent(self):
        u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        v = np.array([1.0, -1.0, 2.0])
        x = np.outer(u, v)  # exact rank 1
        res = dual_pca(x)
        overlaps = projection_overlaps(res, x.T @ np.eye(5, 2))
        assert np.isfinite(overlaps[0]).all()
        assert np.isnan(overlaps[1:]).all()

    def test_non_finite_input_rejected(self):
        x = np.ones((3, 3))
        x[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            dual_pca(x)
        x[1, 1] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            dual_pca(x)

    def test_finiteness_check_builds_no_mask(self):
        # A d x n boolean mask would be 0.125 x.nbytes; the Gram diagonal
        # check needs only the n x n Gram.
        x = np.random.default_rng(4).standard_normal((5000, 40))
        tracemalloc.start()
        try:
            dual_pca(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * x.nbytes

    def test_overflowing_gram_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            dual_pca(np.full((3, 3), 1e200))

    def test_centered_inf_raises_only_value_error(self):
        x = np.zeros((4, 3))
        x[2, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf"):
                dual_pca(x, center=True)

    def test_rank_bounds(self):
        x = np.ones((4, 3))
        with pytest.raises(ValueError):
            dual_pca(x, rank=0)
        with pytest.raises(ValueError):
            dual_pca(x, rank=4)

    def test_divisor_validation(self):
        with pytest.raises(ValueError, match="at least two samples"):
            dual_pca(np.ones((3, 1)), divisor="n-1")
        with pytest.raises(ValueError, match="positive"):
            dual_pca(np.ones((3, 2)), divisor=-1)

    def test_not_a_matrix(self):
        with pytest.raises(ValueError):
            dual_pca(np.ones(5))


class TestLoadingNorms:
    @pytest.mark.parametrize("center", [False, True])
    def test_equal_norms_of_projected_scores(self, center):
        x = np.random.default_rng(21).standard_normal((60, 8)) + 0.7
        res = dual_pca(x, center=center, divisor="n-1", rank=7)
        xc = x - x.mean(axis=1, keepdims=True) if center else x
        direct = np.linalg.norm(xc @ res.score_vectors, axis=0)
        assert np.allclose(loading_norms(res), direct, rtol=1e-12, atol=0)

    def test_nan_exactly_where_loading_invalid(self):
        x = np.outer([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -1.0, 2.0])  # rank 1
        res = dual_pca(x)
        w = res.sample_eigenvalues
        assert np.array_equal(np.isnan(loading_norms(res)), w <= ZERO_EIGENVALUE_RTOL * w[0])
        assert np.isnan(loading_norms(res)).sum() == 2

    @pytest.mark.parametrize("center", [False, True])
    def test_loadings_divide_by_norms(self, center):
        # X_c v_j / norms[j] is the j-th eigenvector of the d x d covariance.
        x = np.random.default_rng(22).standard_normal((30, 6))
        res = dual_pca(x, center=center, rank=5)
        xc = x - x.mean(axis=1, keepdims=True) if center else x
        loadings = (xc @ res.score_vectors) / loading_norms(res)
        _, u = direct_eigen(x, center, 6)
        assert np.allclose(np.abs(loadings.T @ u[:, :5]), np.eye(5), atol=1e-10)

    def test_negative_eigenvalue_is_absent_without_warning(self):
        # A hand-built result may carry a negative eigenvalue; no root of
        # it is taken (pytest turns a RuntimeWarning into an error).
        res = PcaResult(
            sample_eigenvalues=np.array([2.0, -1e-3]),
            score_vectors=np.eye(4, 2),
            divisor=4.0,
            centered=False,
            n=4,
            d=10,
        )
        norms = loading_norms(res)
        assert norms[0] == np.sqrt(4.0) * np.sqrt(2.0)
        assert np.isnan(norms[1])


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        path.write_text("\n".join(",".join(str(v) for v in row) for row in x) + "\n")
        assert np.array_equal(load_matrix_csv(path), x)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        assert np.array_equal(load_matrix_csv(path, header=True), [[1.0, 2.0], [3.0, 4.0]])

    def test_single_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("3\n0\n0\n")
        x = load_matrix_csv(path)
        assert x.shape == (3, 1)
        res = dual_pca(x, rank=1)
        assert res.sample_eigenvalues[0] == pytest.approx(9.0)
