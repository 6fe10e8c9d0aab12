import itertools
import tracemalloc

import numpy as np
import pytest

import polair.air
import polair.estimators
from polair.air import (
    AirEstimate,
    _corollary1_values,
    _corollary4_values,
    _decoding_metric,
    _discrete_values,
    _metric_weights,
    _separable_values,
    air_corollary4,
    air_corollary4_paired_mc,
    air_discrete_paired_mc,
    air_gaussian_paired_mc,
    air_synthetic_mc,
    capacity_perfect,
    synthetic_estimates,
)
from polair.channel import Constellation, make_constellation, make_pilots
from polair.estimators import (
    ESTIMATORS,
    UNITARY_KINDS,
    estimate_kabsch,
    estimate_ls,
    statistic_sampler,
)
from polair.linalg import MC_BLOCK, haar_unitary, mc_blocks, sample_cgauss

from oracles import (
    air_theorem1,
    corollary1_reference,
    dagger,
    error_covariance,
    fro_norm,
    mi_discrete_given_H,
    mi_gaussian_given_H,
    reference_density,
    scalar_awgn_mi_quadrature,
    synthetic_air_given_U,
)

LN2 = np.log(2.0)


def random_complex(shape, rng, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def statistic(X, D, c):
    """The pilot statistic A = X D^dagger and its scale c = P L / n, D D^dagger = c I."""
    return X @ dagger(D), c


class TestCapacityPerfect:
    def test_unit_snr(self):
        assert capacity_perfect(2, 1.0).value == pytest.approx(2.0, abs=1e-12)

    def test_ten_snr(self):
        # high-precision evaluation of 2*log2(11)
        assert capacity_perfect(2, 10.0).value == pytest.approx(6.91886323727459, abs=1e-4)

    def test_vanishing_snr(self):
        value = capacity_perfect(2, 1e-12).value
        assert 0 < value < 1e-11

    def test_invalid(self):
        with pytest.raises(ValueError):
            capacity_perfect(2, 0.0)


class TestMiGaussian:
    def test_unitary_channel_equals_capacity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            U = haar_unitary(2, rng)
            mi = mi_gaussian_given_H(U, 10.0 * np.eye(2)).value
            assert mi == pytest.approx(capacity_perfect(2, 10.0).value, abs=1e-10)

    def test_zero_channel(self):
        assert mi_gaussian_given_H(np.zeros((2, 2)), np.eye(2)).value == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_channel(self):
        # |I + H^dag H Q| = |diag(2, 1)| = 2 for H = diag(1, 0), Q = I
        assert mi_gaussian_given_H(np.diag([1.0, 0.0]), np.eye(2)).value == pytest.approx(1.0, abs=1e-12)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            mi_gaussian_given_H(np.eye(2), -np.eye(2))


class TestTheorem1:
    def test_perfect_estimate_reduces_to_mi(self):
        rng = np.random.default_rng(1)
        U = haar_unitary(2, rng)
        got = air_theorem1(U, U, 5.0 * np.eye(2), 1.0).value
        assert got == pytest.approx(capacity_perfect(2, 5.0).value, abs=1e-10)

    def test_unitary_pair_matches_trace_form(self):
        # for unitary H and H_hat with Q = eta I the bound collapses to
        # n log2(1+eta) - (eta/ln 2) tr(E^dag E)
        rng = np.random.default_rng(2)
        eta = 7.0
        for _ in range(20):
            H = haar_unitary(2, rng)
            H_hat = haar_unitary(2, rng)
            E = H - H_hat
            expected = 2 * np.log2(1 + eta) - (eta / LN2) * np.trace(dagger(E) @ E).real
            got = air_theorem1(H, H_hat, eta * np.eye(2), 1.0).value
            assert got == pytest.approx(expected, abs=1e-9)

    def test_never_exceeds_matched_mi(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            H = random_complex((2, 2), rng)
            H_hat = H + random_complex((2, 2), rng, scale=0.3)
            Q = 3.0 * np.eye(2)
            assert air_theorem1(H, H_hat, Q, 1.0).value <= mi_gaussian_given_H(H, Q).value + 1e-9


class TestCorollary1:
    """The kernel on the identity channel: an estimate H_hat of the unitary channel U enters as U^dagger H_hat."""

    def test_perfect_estimate(self):
        U = haar_unitary(2, np.random.default_rng(4))
        assert _corollary1_values(dagger(U) @ U, 10.0) == pytest.approx(capacity_perfect(2, 10.0).value, abs=1e-10)

    def test_zero_estimate_gives_zero(self):
        # symbolic evaluation: log|I| - (eta/ln2) n + (eta/ln2) n = 0
        assert _corollary1_values(np.zeros((2, 2)), 10.0) == pytest.approx(0.0, abs=1e-10)

    def test_specializes_theorem1(self):
        rng = np.random.default_rng(6)
        eta = 4.0
        for _ in range(1000):
            U = haar_unitary(2, rng)
            H_hat = U + random_complex((2, 2), rng, scale=0.2)
            a = _corollary1_values(dagger(U) @ H_hat, eta)
            b = air_theorem1(U, H_hat, eta * np.eye(2), 1.0).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


class TestCorollary1Kernel:
    """The n = 2 closed form and the n > 2 Cholesky form of _corollary1_values against slogdet and inv."""

    @pytest.mark.parametrize("eta_db", [-10.0, 0.0, 10.0, 20.0, 40.0])
    def test_closed_form_matches_slogdet_inv(self, eta_db):
        n, L, b = 2, 8, 2048
        eta = 10.0 ** (eta_db / 10.0)
        rng = np.random.default_rng(int(eta_db) + 100)
        D = make_pilots(n, L, n * eta)
        H = haar_unitary(n, rng, size=b)
        X = H @ D + sample_cgauss((b, n, L), 1.0, rng)
        A, c = statistic(X, D, eta * L)
        eye = np.eye(n)
        estimates = {
            "ls": (H, estimate_ls(A, c)),
            "kabsch": (H, estimate_kabsch(A)),
            "synthetic": (eye, synthetic_estimates(n, 1e-2, b, rng)),
        }
        for kind, (H_u, H_hat) in estimates.items():
            got = _corollary1_values(dagger(H_u) @ H_hat, eta)
            ref = corollary1_reference(H_u, H_hat, eta)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12, err_msg=kind)

    @pytest.mark.parametrize("n", [3, 4])
    def test_larger_n(self, n):
        rng = np.random.default_rng(31 + n)
        for eta_db in (-10.0, 0.0, 10.0, 20.0, 40.0):
            eta, eye = 10.0 ** (eta_db / 10.0), np.eye(n)
            draw, c = statistic_sampler(n, eta, 2 * n)
            A = draw(512, rng)
            estimates = {
                "ls": estimate_ls(A, c),
                "kabsch": estimate_kabsch(A),
                "synthetic": synthetic_estimates(n, 1e-2, 512, rng),
            }
            for kind, H_hat in estimates.items():
                np.testing.assert_allclose(
                    _corollary1_values(H_hat, eta),
                    corollary1_reference(eye, H_hat, eta),
                    rtol=1e-12,
                    atol=1e-12,
                    err_msg=f"{kind} at {eta_db} dB",
                )

    @pytest.mark.parametrize("eta_db", [-10.0, 10.0, 40.0])
    @pytest.mark.parametrize("n", [2, 4])
    def test_synthetic_error_on_haar_channel(self, n, eta_db):
        # The synthetic estimate U - E of a Haar channel U is the estimate I - U^dagger E of the identity.
        rng = np.random.default_rng(900 + 10 * n + int(eta_db))
        U = haar_unitary(n, rng)
        E = sample_cgauss((256, n, n), 2.0 * n * 1e-2, rng)
        eta = 10.0 ** (eta_db / 10.0)
        np.testing.assert_allclose(
            _corollary1_values(np.eye(n) - dagger(U) @ E, eta),
            corollary1_reference(U, U - E, eta),
            rtol=1e-12,
            atol=1e-12,
        )


class TestCorollary4Kernel:
    """The unitary kinds' Gaussian rate, n log2(1+eta) - eta ||I - H_hat||_F^2 / ln 2, against Corollary 1."""

    @pytest.mark.parametrize("eta_db", [-10.0, 4.0, 14.0, 40.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_corollary1_on_identity(self, n, eta_db):
        eta, eye = 10.0 ** (eta_db / 10.0), np.eye(n)
        draw, _ = statistic_sampler(n, eta, 2 * n)
        kabsch = estimate_kabsch(draw(512, np.random.default_rng(700 + 10 * n + int(eta_db))))
        for H_hat in (kabsch, eye):
            got = _corollary4_values(H_hat, eta)
            assert np.abs(got - _corollary1_values(H_hat, eta)).max() <= 1e-12
        assert _corollary4_values(eye, eta) == capacity_perfect(n, eta).value


def non_contiguous(stack):
    """The same matrices as a strided view of a batch-last copy."""
    view = np.ascontiguousarray(np.moveaxis(stack, 0, -1)).transpose(2, 0, 1)
    assert not view.flags.c_contiguous
    return view


class TestTwoByTwoKernelLayout:
    """A matrix's n = 2 rate or metric does not depend on the stack around it or on its memory layout.

    The entry-by-entry arithmetic is elementwise, so a strided view of the
    same matrices gives the same bits. The sums over 2 n^2 squared parts and
    over the metric's features are BLAS products, whose rounding can differ
    between a stack and a matrix alone, so those agree to 1e-12.
    """

    @staticmethod
    def estimates():
        eta = 10.0
        draw, c = statistic_sampler(2, eta, 8)
        A = draw(MC_BLOCK + 7, np.random.default_rng(43))
        return eta, {"ls": estimate_ls(A, c), "kabsch": estimate_kabsch(A)}

    @pytest.mark.parametrize("rate", [_corollary1_values, _corollary4_values])
    def test_rates(self, rate):
        eta, estimates = self.estimates()
        for kind, H_hat in estimates.items():
            values = rate(H_hat, eta)
            assert np.array_equal(rate(non_contiguous(H_hat), eta), values), kind
            alone = np.array([rate(H, eta) for H in H_hat])
            assert np.abs(alone - values).max() <= 1e-12, kind
            shared = rate(np.broadcast_to(H_hat[5], (4, 2, 2)), eta)
            assert np.abs(shared - values[5]).max() <= 1e-12, kind

    def test_decoding_metric(self):
        eta, estimates = self.estimates()
        c = make_constellation("dp_16qam", 2, eta)
        rng = np.random.default_rng(44)
        x = c.points[rng.integers(0, 256, MC_BLOCK + 7)] + sample_cgauss((MC_BLOCK + 7, 2), 1.0, rng)
        weights = _metric_weights(c.points)
        for kind, H_hat in estimates.items():
            metric = _decoding_metric(H_hat, x, weights)
            assert np.array_equal(_decoding_metric(non_contiguous(H_hat), x, weights), metric), kind
            for k in range(0, MC_BLOCK + 7, 97):
                assert np.abs(_decoding_metric(H_hat[k : k + 1], x[k : k + 1], weights) - metric[k]).max() <= 1e-12
            shared = _decoding_metric(np.broadcast_to(H_hat[5], (4, 2, 2)), np.broadcast_to(x[5], (4, 2)), weights)
            assert np.abs(shared - metric[5]).max() <= 1e-12, kind


class TestCorollary4:
    def test_zero_error(self):
        assert air_corollary4(2, 10.0, 0.0).value == pytest.approx(
            capacity_perfect(2, 10.0).value, abs=1e-12
        )

    def test_reference_value(self):
        # 2 log2(11) - (10/ln2) * 0.05 = 6.197515...
        got = air_corollary4(2, 10.0, 0.05).value
        assert got == pytest.approx(6.1976, abs=1e-3)

    def test_monotone_in_trace(self):
        values = [air_corollary4(2, 10.0, t).value for t in (0.0, 0.02, 0.1, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_corollary1_for_unitary_estimate(self):
        rng = np.random.default_rng(7)
        eta = 6.0
        for _ in range(200):
            U = haar_unitary(2, rng)
            H_hat = haar_unitary(2, rng)
            E = U - H_hat
            single_sample = air_corollary4(2, eta, fro_norm(E) ** 2).value
            assert _corollary1_values(dagger(U) @ H_hat, eta) == pytest.approx(single_sample, abs=1e-10)

    @pytest.mark.parametrize(
        "eta, tr_R_E",
        [(1.0, -2.0), (1.0, float("nan")), (1.0, float("inf")), (0.0, 0.1), (-1.0, 0.1)],
        ids=["negative_trace", "nan_trace", "inf_trace", "zero_eta", "negative_eta"],
    )
    def test_invalid_input_rejected(self, eta, tr_R_E):
        with pytest.raises(ValueError):
            air_corollary4(2, eta, tr_R_E)


class TestCorollary2MonteCarlo:
    def test_rotation_invariance_with_spherical_error(self):
        # spherically symmetric synthetic error: the identity-channel average
        # of the package equals the general-form average on Haar channels
        eta, e2, trials = 10.0, 1e-2, 20_000
        baseline = air_synthetic_mc(2, e2, eta, trials, np.random.default_rng(100))
        rng = np.random.default_rng(12)
        for i in range(3):
            U = haar_unitary(2, rng)
            other = synthetic_air_given_U(U, e2, eta, trials, np.random.default_rng(200 + i))
            margin = 3 * np.hypot(baseline.std_error, other.std_error)
            assert abs(baseline.value - other.value) <= margin


class TestSyntheticModels:
    def test_general_model_error_scale(self):
        # tr E[E^dag E] should equal n * (2 n^2) * e2
        n, e2 = 2, 1e-2
        H_hat = synthetic_estimates(n, e2, 100_000, np.random.default_rng(15))
        E = np.eye(n) - H_hat
        tr = np.mean(np.sum(np.abs(E) ** 2, axis=(1, 2)))
        assert tr == pytest.approx(n * 2 * n**2 * e2, rel=0.02)

    def test_zero_error_returns_channel(self):
        H_hat = synthetic_estimates(2, 0.0, 3, np.random.default_rng(17))
        assert H_hat.shape == (3, 2, 2) and H_hat.dtype == complex
        assert np.array_equal(H_hat, np.broadcast_to(np.eye(2), (3, 2, 2)))

    @pytest.mark.parametrize("error_per_dof", [np.nan, np.inf, -1.0])
    def test_invalid_error_rejected(self, error_per_dof):
        match = "^error_per_dof must be finite and >= 0"
        with pytest.raises(ValueError, match=match):
            synthetic_estimates(2, error_per_dof, 3, np.random.default_rng(18))
        with pytest.raises(ValueError, match=match):
            air_synthetic_mc(2, error_per_dof, 10.0, 200, np.random.default_rng(18))


class TestDiscreteMi:
    """The Monte Carlo MI oracle given a fixed channel, against known limits."""

    def test_saturates_at_high_snr(self):
        eta = 1000.0
        c = make_constellation("dp_qpsk", 2, eta)
        H = haar_unitary(2, np.random.default_rng(18))
        est = mi_discrete_given_H(H, c, 1.0, 20_000, np.random.default_rng(19))
        assert est.value == pytest.approx(4.0, abs=0.02)

    def test_vanishes_at_low_snr(self):
        eta = 0.001
        c = make_constellation("dp_qpsk", 2, eta)
        H = haar_unitary(2, np.random.default_rng(20))
        est = mi_discrete_given_H(H, c, 1.0, 20_000, np.random.default_rng(21))
        assert est.value == pytest.approx(0.0, abs=0.02)

    def test_matches_quadrature_oracle_for_binary_input(self):
        # 1-D channel, PAM-2 on Re and Im (QPSK) at sigma2 = 1: two independent binary real channels
        c = Constellation(n=1, pam_levels=[-1.0, 1.0])
        oracle = 2 * scalar_awgn_mi_quadrature([1.0, -1.0], sigma2=1.0)
        est = mi_discrete_given_H(np.eye(1), c, 1.0, 200_000, np.random.default_rng(22))
        assert est.value == pytest.approx(oracle, abs=0.01)

    def test_bounded(self):
        eta = 10.0**0.5
        c = make_constellation("dp_16qam", 2, eta)
        H = haar_unitary(2, np.random.default_rng(23))
        est = mi_discrete_given_H(H, c, 1.0, 5000, np.random.default_rng(24))
        assert -3 * est.std_error <= est.value <= np.log2(256) + 3 * est.std_error


class TestDiscreteAir:
    def test_perfect_stub_matches_mi(self):
        eta = 10.0**0.8
        c = make_constellation("dp_qpsk", 2, eta)
        air = air_discrete_paired_mc(c, eta, 8, 30_000, np.random.default_rng(25), kinds=())["perfect"]
        H = haar_unitary(2, np.random.default_rng(26))
        mi = mi_discrete_given_H(H, c, 1.0, 30_000, np.random.default_rng(27))
        margin = 3 * np.hypot(air.std_error, mi.std_error)
        assert abs(air.value - mi.value) <= margin

    def test_estimators_bounded_by_perfect_and_ordered(self):
        eta = 10.0
        c = make_constellation("dp_16qam", 2, eta)
        out = air_discrete_paired_mc(c, eta, 8, 20_000, np.random.default_rng(28), kinds=("ls", "kabsch"))
        assert out["ls"].value <= out["perfect"].value
        assert out["kabsch"].value <= out["perfect"].value
        diff = out["kabsch-perfect"]
        assert diff.value <= 3 * diff.std_error
        ls_vs_kabsch = out["ls-kabsch"]
        assert -ls_vs_kabsch.value >= -3 * ls_vs_kabsch.std_error  # kabsch >= ls

    @pytest.mark.parametrize("eta_db", [-2.0, 4.0, 14.0])
    @pytest.mark.parametrize("kind", ["dp_qpsk", "dp_16qam"])
    def test_perfect_matches_quadrature_oracle(self, kind, eta_db):
        # The perfect-CSI reference is the MI of 2n independent real PAM channels of noise variance 1/2.
        eta = 10.0 ** (eta_db / 10.0)
        c = make_constellation(kind, 2, eta)
        perfect = air_discrete_paired_mc(c, eta, 8, 20_000, np.random.default_rng(29), kinds=())["perfect"]
        oracle = 2 * c.n * scalar_awgn_mi_quadrature(c.pam_levels, 1.0)
        bound = 4 * perfect.std_error + 1e-6
        if perfect.std_error < 1e-4:
            # Saturated (DP-QPSK at 14 dB): the loss below log2(M), 4.7e-6 bits, comes from noise tails of
            # probability ~3e-7 per dimension that 20,000 trials rarely sample, and the stderr cannot show it.
            bound += np.log2(c.size) - oracle
        assert abs(perfect.value - oracle) <= bound


def decode(H_dec, x):
    """The decoded vector H_dec^dagger x; ``H_dec`` is (n, n) shared or (B, n, n) per sample."""
    return np.einsum("...ji,...j->...i", H_dec.conj(), x)


def density(kind, H_dec, x, idx, constellation):
    """The per-trial density air_discrete_paired_mc takes for ``kind``.

    Separable for a unitary kind and for ``"perfect"``, the reference that
    decodes with the channel itself; the full metric otherwise.
    """
    if kind == "perfect" or kind in UNITARY_KINDS:
        return _separable_values(decode(H_dec, x), constellation.points[idx], constellation.pam_levels)
    return _discrete_values(_decoding_metric(H_dec, x, _metric_weights(constellation.points)), idx)


def haar_draws(constellation, L, trials, rng):
    """Haar channels H, pilot noise N, transmitted point indices and symbol noise w."""
    n = constellation.n
    H = haar_unitary(n, rng, size=trials)
    N = sample_cgauss((trials, n, L), 1.0, rng)
    idx = rng.integers(0, constellation.points.shape[0], size=trials)
    return H, N, idx, sample_cgauss((trials, n), 1.0, rng)


def paired_draws(constellation, eta, L, trials, seed):
    """The draws of air_discrete_paired_mc: block k from the k-th of rng.spawn(n_blocks).

    The pilot statistic is drawn directly, A = c I + sqrt(c) Z with c = eta L;
    returns (A, c), the point indices and the received symbols.
    """
    n, points = constellation.n, constellation.points
    c = eta * L
    starts = range(0, trials, MC_BLOCK)
    parts = []
    for start, rng in zip(starts, np.random.default_rng(seed).spawn(len(starts))):
        b = min(MC_BLOCK, trials - start)
        A = c * np.eye(n) + sample_cgauss((b, n, n), c, rng)
        idx = rng.integers(0, points.shape[0], size=b)
        parts.append((A, idx, points[idx] + sample_cgauss((b, n), 1.0, rng)))
    A, idx, x = (np.concatenate(p) for p in zip(*parts))
    return A, c, idx, x


class TestDiscreteKernel:
    """The expanded-metric and separable kernels against the direct distance form, to 1e-12."""

    @pytest.mark.parametrize("input_kind", ["dp_qpsk", "dp_16qam"])  # M = 16, 256
    def test_matches_reference(self, input_kind):
        for eta_db in range(-10, 41, 5):
            eta = 10.0 ** (eta_db / 10.0)
            c = make_constellation(input_kind, 2, eta)
            points = c.points
            weights = _metric_weights(points)
            D = make_pilots(2, 8, 2 * eta)
            H, N, idx, w = haar_draws(c, 8, 512, np.random.default_rng(100 + eta_db))
            X = H @ D + N
            x = np.einsum("bij,bj->bi", H, points[idx]) + w
            A, c_scale = statistic(X, D, eta * 8)
            decoders = {"ls": estimate_ls(A, c_scale), "kabsch": estimate_kabsch(A), "perfect": H}
            for name, H_dec in decoders.items():
                got = density(name, H_dec, x, idx, c)
                want = reference_density(x, H_dec, idx, points, 1.0)
                assert np.abs(got - want).max() <= 1e-12, (input_kind, eta_db, name)
            # one channel shared by every sample
            Hs = H[0]
            xs = points[idx] @ Hs.T + sample_cgauss(x.shape, 1.0, np.random.default_rng(200 + eta_db))
            got = _discrete_values(_decoding_metric(np.broadcast_to(Hs, H.shape), xs, weights), idx)
            want = reference_density(xs, Hs, idx, points, 1.0)
            assert np.abs(got - want).max() <= 1e-12, (input_kind, eta_db, "shared")

    @pytest.mark.parametrize("input_kind", ["dp_qpsk", "dp_16qam"])
    def test_separable_matches_full_metric(self, input_kind):
        # The unitary decoders of the Monte Carlo: Kabsch estimates per trial and the shared identity.
        for eta_db in range(-10, 41, 5):
            eta = 10.0 ** (eta_db / 10.0)
            c = make_constellation(input_kind, 2, eta)
            points = c.points
            A, _, idx, x = paired_draws(c, eta, 8, 512, 700 + eta_db)
            weights = _metric_weights(points)
            for name, H_dec in {"kabsch": estimate_kabsch(A), "perfect": np.eye(2)}.items():
                got = _separable_values(decode(H_dec, x), points[idx], c.pam_levels)
                full = _discrete_values(_decoding_metric(np.broadcast_to(H_dec, (x.shape[0], 2, 2)), x, weights), idx)
                assert np.abs(got - full).max() <= 1e-12, (input_kind, eta_db, name)
                want = reference_density(x, H_dec, idx, points, 1.0)
                assert np.abs(got - want).max() <= 1e-12, (input_kind, eta_db, name)

    @pytest.mark.parametrize("kind", ["ls", "kabsch", "perfect"])
    def test_paired_mc_matches_reference(self, kind, monkeypatch):
        # The trials span two blocks. Every call returns the perfect-CSI
        # reference, whose decoder is the identity channel; its per-trial
        # values are read from the blocks of the step.
        blocks = []

        def recording(*args):
            blocks.extend(mc_blocks(*args))
            return blocks

        monkeypatch.setattr(polair.air, "mc_blocks", recording)
        eta = 10.0**1.2
        c = make_constellation("dp_16qam", 2, eta)
        kinds = () if kind == "perfect" else (kind,)
        out = air_discrete_paired_mc(c, eta, 8, MC_BLOCK + 952, np.random.default_rng(31), kinds=kinds)
        A, c_scale, idx, x = paired_draws(c, eta, 8, MC_BLOCK + 952, 31)
        H_dec = {"ls": estimate_ls(A, c_scale), "kabsch": estimate_kabsch(A), "perfect": np.eye(2)}[kind]
        want = reference_density(x, H_dec, idx, c.points, 1.0).mean()
        assert abs(out[kind].value - want) <= 1e-12
        reference = reference_density(x, np.eye(2), idx, c.points, 1.0)
        assert np.abs(np.concatenate([block["perfect"] for block in blocks]) - reference).max() <= 1e-12
        assert abs(out["perfect"].value - reference.mean()) <= 1e-12
        if kinds:
            per_trial = reference_density(x, H_dec, idx, c.points, 1.0) - reference
            assert abs(out[f"{kind}-perfect"].value - per_trial.mean()) <= 1e-12

    def test_nonunitary_estimate_gets_gram_energy(self, monkeypatch):
        # A per-sample 1.1 U estimate is not unitary: LS must not use ||s||^2.
        eta = 10.0**1.2
        c = make_constellation("dp_16qam", 2, eta)
        monkeypatch.setattr(polair.estimators, "estimate_ls", lambda A, c: 1.1 * estimate_kabsch(A))
        out = air_discrete_paired_mc(c, eta, 8, 1000, np.random.default_rng(32), kinds=("ls",))
        A, _, idx, x = paired_draws(c, eta, 8, 1000, 32)
        H_dec = 1.1 * estimate_kabsch(A)
        want = reference_density(x, H_dec, idx, c.points, 1.0).mean()
        assert abs(out["ls"].value - want) <= 1e-12
        shortcut = _separable_values(decode(H_dec, x), c.points[idx], c.pam_levels).mean()
        assert abs(shortcut - want) > 1e-2


class TestIdentityChannelCoupling:
    """Rates from (H, H D + N, H s + w) equal rates from (I, D + H^dagger N, s + H^dagger w).

    H^dagger N and H^dagger w are again i.i.d. Gaussian, so this is what lets
    every Monte Carlo step run on the identity channel.
    """

    @pytest.mark.parametrize("eta_db", [-10.0, 4.0, 14.0, 40.0])
    def test_per_trial_values_match(self, eta_db):
        eta = 10.0 ** (eta_db / 10.0)
        c = make_constellation("dp_16qam", 2, eta)
        D, c_scale, eye = make_pilots(2, 8, 2 * eta), eta * 8, np.eye(2)
        H, N, idx, w = haar_draws(c, 8, 1024, np.random.default_rng(300 + int(eta_db)))
        s, Hd = c.points[idx], dagger(H)
        X, x = H @ D + N, np.einsum("bij,bj->bi", H, s) + w
        X0, x0 = D + Hd @ N, s + np.einsum("bij,bj->bi", Hd, w)
        decoders = {"perfect": (H, eye)}
        for kind in ("ls", "kabsch"):
            H_hat, H_hat0 = ESTIMATORS[kind](*statistic(X, D, c_scale)), ESTIMATORS[kind](*statistic(X0, D, c_scale))
            decoders[kind] = (H_hat, H_hat0)
            rates = corollary1_reference(H, H_hat, eta), _corollary1_values(H_hat0, eta)
            assert np.abs(rates[0] - rates[1]).max() <= 1e-12, kind
            sq = np.sum(np.abs(H - H_hat) ** 2, axis=(1, 2)), np.sum(np.abs(eye - H_hat0) ** 2, axis=(1, 2))
            assert np.abs(sq[0] - sq[1]).max() <= 1e-12, kind
        for kind, (H_dec, H_dec0) in decoders.items():
            got = density(kind, H_dec, x, idx, c)
            want = density(kind, H_dec0, x0, idx, c)
            assert np.abs(got - want).max() <= 1e-12, kind


class TestPilotStatisticCoupling:
    """Estimates from (D, D + N), D n x L, equal estimates from the direct draw A = c I + sqrt(c) Z.

    With c = P L / n, (D + N) D^dagger = c I + N D^dagger, the statistic every
    registry kind reads, and Z = N D^dagger / sqrt(c) is again i.i.d.
    CN(0, 1). This is what lets every Monte Carlo step draw the n x n
    statistic with no pilots.
    """

    @staticmethod
    def coupled(n, L, eta, trials, seed):
        c = eta * L
        D = make_pilots(n, L, n * eta)
        N = sample_cgauss((trials, n, L), 1.0, np.random.default_rng(seed))
        Z = N @ dagger(D) / np.sqrt(c)
        return D, D + N, c * np.eye(n) + np.sqrt(c) * Z

    @pytest.mark.parametrize("n, L", [(2, 2), (2, 8), (2, 64), (3, 6), (4, 4), (4, 64)])
    def test_every_kind_gives_the_same_estimate(self, n, L):
        eta = 10.0**0.4
        D, X, A0 = self.coupled(n, L, eta, 512, 400 + 10 * n + L)
        c = eta * L
        for kind, estimate in ESTIMATORS.items():
            assert np.abs(estimate(*statistic(X, D, c)) - estimate(A0, c)).max() <= 1e-12, kind

    @pytest.mark.parametrize("L_per_n", [1, 4, 32])
    @pytest.mark.parametrize("n", [2, 4])
    def test_draw_is_scaled_standard_draw(self, n, L_per_n):
        # The same normals in the same order: draw(b, rng) is c I + sqrt(c) times the CN(0, 1) draw.
        eta, L, b = 10.0**0.4, n * L_per_n, 1000
        draw, c = statistic_sampler(n, eta, L)
        assert c == eta * L
        seed = 800 + 10 * n + L
        Z = sample_cgauss((b, n, n), 1.0, np.random.default_rng(seed))
        assert np.abs(draw(b, np.random.default_rng(seed)) - (c * np.eye(n) + np.sqrt(c) * Z)).max() <= 1e-12

    @pytest.mark.parametrize("L", [2, 8, 64])
    @pytest.mark.parametrize("eta_db", [-10.0, 4.0, 14.0, 40.0])
    def test_rates_and_densities_match_at_n2(self, eta_db, L):
        eta, eye, b = 10.0 ** (eta_db / 10.0), np.eye(2), 1024
        c = make_constellation("dp_16qam", 2, eta)
        D, X, A0 = self.coupled(2, L, eta, b, 500 + int(eta_db) + L)
        c_scale = eta * L
        rng = np.random.default_rng(600 + int(eta_db) + L)
        idx = rng.integers(0, c.points.shape[0], size=b)
        x = c.points[idx] + sample_cgauss((b, 2), 1.0, rng)
        for kind, estimate in ESTIMATORS.items():
            H_hat, H_hat0 = estimate(*statistic(X, D, c_scale)), estimate(A0, c_scale)
            rates = _corollary1_values(H_hat, eta), _corollary1_values(H_hat0, eta)
            assert np.abs(rates[0] - rates[1]).max() <= 1e-12, kind
            sq = np.sum(np.abs(eye - H_hat) ** 2, axis=(1, 2)), np.sum(np.abs(eye - H_hat0) ** 2, axis=(1, 2))
            assert np.abs(sq[0] - sq[1]).max() <= 1e-12, kind
            got = density(kind, H_hat, x, idx, c)
            want = density(kind, H_hat0, x, idx, c)
            assert np.abs(got - want).max() <= 1e-12, kind

    @pytest.mark.parametrize("n, L", [(2, 3), (4, 2)])
    @pytest.mark.parametrize("entry", ["gaussian", "discrete", "error_cov"])
    def test_invalid_L_rejected(self, entry, n, L):
        # The steps draw n x n blocks, so only the entry point can reject an L the n x L pilots do not admit.
        c = Constellation(n=n, pam_levels=[-1.0, 1.0])  # any discrete input of dimension n
        rng = np.random.default_rng(0)
        calls = {
            "gaussian": lambda: air_gaussian_paired_mc(n, 10.0, L, 100, rng),
            "discrete": lambda: air_discrete_paired_mc(c, 10.0, L, 1000, rng),
            "error_cov": lambda: air_corollary4_paired_mc(n, 10.0, L, 100, rng),
        }
        with pytest.raises(ValueError, match="L must be"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["gaussian", "discrete", "error_cov"])
    def test_large_L_builds_no_pilot_block(self, entry):
        # The n x L pilots would take 32 bytes per pilot at n = 2: 128 MB at L = 2**22.
        eta, L = 10.0, 2**22
        c = make_constellation("dp_qpsk", 2, eta)
        calls = {
            "gaussian": lambda: air_gaussian_paired_mc(2, eta, L, 100, np.random.default_rng(0)),
            "discrete": lambda: air_discrete_paired_mc(c, eta, L, 1000, np.random.default_rng(0)),
            "error_cov": lambda: air_corollary4_paired_mc(2, eta, L, 100, np.random.default_rng(0)),
        }
        tracemalloc.start()
        try:
            calls[entry]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSharedDraws:
    """Requesting more estimator kinds must not change the draws of the others."""

    def test_gaussian_ls_independent_of_other_kinds(self):
        eta = 10.0**0.8
        alone = air_gaussian_paired_mc(2, eta, 8, 9000, np.random.default_rng(40), kinds=("ls",))
        for kinds in (("ls", "kabsch"), ("kabsch", "ls")):
            out = air_gaussian_paired_mc(2, eta, 8, 9000, np.random.default_rng(40), kinds=kinds)
            assert out["ls"] == alone["ls"]

    def test_discrete_ls_independent_of_other_kinds(self):
        eta = 10.0**0.8
        c = make_constellation("dp_qpsk", 2, eta)
        alone = air_discrete_paired_mc(c, eta, 8, 3000, np.random.default_rng(41), kinds=("ls",))
        for kinds in (("ls", "kabsch"), ("kabsch", "ls")):
            out = air_discrete_paired_mc(c, eta, 8, 3000, np.random.default_rng(41), kinds=kinds)
            assert out["ls"] == alone["ls"]

    def test_perfect_is_not_an_estimator_kind(self):
        # Both rates reject it; the discrete rate returns the perfect-CSI
        # reference for any kinds without its being named.
        eta = 10.0**0.6
        c = make_constellation("dp_qpsk", 2, eta)
        with pytest.raises(ValueError):
            air_gaussian_paired_mc(2, eta, 8, 200, np.random.default_rng(0), kinds=("perfect",))
        plain = air_discrete_paired_mc(c, eta, 8, 1000, np.random.default_rng(0), kinds=("ls",))
        assert list(plain) == ["ls", "perfect", "ls-perfect"]
        with pytest.raises(ValueError):
            air_discrete_paired_mc(c, eta, 8, 1000, np.random.default_rng(0), kinds=("perfect", "ls"))

    def test_unknown_kind_is_value_error(self):
        eta = 10.0**0.6
        c = make_constellation("dp_qpsk", 2, eta)
        with pytest.raises(ValueError):
            air_gaussian_paired_mc(2, eta, 8, 200, np.random.default_rng(0), kinds=("ls", "mmse"))
        with pytest.raises(ValueError):
            air_discrete_paired_mc(c, eta, 8, 1000, np.random.default_rng(0), kinds=("mmse",))


class TestGaussianPaired:
    def test_kabsch_beats_ls(self):
        for eta_db in (0.0, 10.0, 20.0):
            eta = 10.0 ** (eta_db / 10.0)
            out = air_gaussian_paired_mc(2, eta, 8, 5000, np.random.default_rng(29))
            diff = out["ls-kabsch"]
            assert -diff.value > 0

    def test_all_below_capacity(self):
        eta = 10.0**1.2
        out = air_gaussian_paired_mc(2, eta, 8, 5000, np.random.default_rng(30), kinds=("ls", "kabsch"))
        cap = capacity_perfect(2, eta).value
        for kind in ("ls", "kabsch"):
            assert out[kind].value <= cap + 3 * out[kind].std_error

    def test_ls_below_capacity(self):
        eta = 10.0
        est = air_gaussian_paired_mc(2, eta, 8, 4000, np.random.default_rng(11), kinds=("ls",))["ls"]
        cap = capacity_perfect(2, eta).value
        assert est.value < cap
        # the dominant penalty is (eta/ln2) tr(R_E) with tr(R_E) = n^2/(eta L)
        rough_gap = (eta / LN2) * (4 / (eta * 8))
        assert cap - est.value == pytest.approx(rough_gap, rel=0.35)


class TestCorollary4Paired:
    """The error_cov driver: every kind's Corollary-4 bound of its own error, on shared draws."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_mean_is_bound_of_error_covariance(self, n):
        # The mean of the per-trial bounds is n log2(1+eta) - eta tr(R_E)/ln 2
        # of the R_E averaged over the same draws.
        eta = 10.0**0.4
        out = air_corollary4_paired_mc(n, eta, 2 * n, MC_BLOCK + 500, np.random.default_rng(20 + n))
        for kind in ("ls", "kabsch"):
            R_E = error_covariance(kind, n, eta, 2 * n, MC_BLOCK + 500, np.random.default_rng(20 + n))
            bound = n * np.log2(1.0 + eta) - eta * np.trace(R_E).real / LN2
            assert out[kind].value == pytest.approx(bound, abs=1e-12)
            assert out[kind].std_error > 0

    def test_error_depends_on_pilot_energy_alone(self):
        # At a fixed pilot energy eta' L, every L of fig4's grid draws the same errors, so the mean
        # squared error (capacity - bound) ln 2 / eta' is the same up to round-off.
        per_eta = {}
        for L in (2, 4, 8, 16, 32, 64):
            eta = 10.0**0.4 * 8 / L
            out = air_corollary4_paired_mc(2, eta, L, MC_BLOCK + 500, np.random.default_rng(17))
            cap = capacity_perfect(2, eta).value
            per_eta[L] = np.array([(cap - out[kind].value) / eta for kind in ("ls", "kabsch")])
        for L, value in per_eta.items():
            assert np.max(np.abs(value - per_eta[8])) <= 1e-12, L

    def test_ls_independent_of_other_kinds(self):
        # One call for several kinds shares the draws without changing any kind's result.
        eta = 10.0**0.5
        alone = air_corollary4_paired_mc(2, eta, 8, 9000, np.random.default_rng(15), kinds=("ls",))
        both = air_corollary4_paired_mc(2, eta, 8, 9000, np.random.default_rng(15), kinds=("kabsch", "ls"))
        assert both["ls"] == alone["ls"]

    def test_unknown_kind(self):
        eta = 10.0**0.5
        for kinds in (("mmse",), ("ls", "perfect")):
            with pytest.raises(ValueError):
                air_corollary4_paired_mc(2, eta, 8, 500, np.random.default_rng(0), kinds=kinds)

    def test_min_trials(self):
        eta = 10.0
        with pytest.raises(ValueError):
            air_corollary4_paired_mc(2, eta, 8, 50, np.random.default_rng(0), kinds=("ls",))


class TestStderrCalibration:
    """The seed-to-seed spread of each Monte Carlo estimate matches its reported standard error.

    Each row runs a paired driver at L = 8 over seeds 0-19; the spread of each reported estimate
    (``ls``, ``kabsch`` and the paired ``ls-kabsch``, and for a discrete input also ``perfect`` and
    the pairs ``ls-perfect`` and ``kabsch-perfect``) must lie within [1/3, 3] times its median
    reported stderr. A discrete input's ``perfect`` runs are also z-scored against the exact MI.
    A row that fails is a known defect, marked as such: the change that mends it flips its mark.
    """

    saturated = pytest.mark.xfail(
        strict=True,
        reason="FOUND in CHANGES.md: air_discrete_paired_mc understates a saturated rate's stderr, "
        "whose loss comes from noise tails the trials rarely sample",
    )

    @pytest.mark.parametrize(
        "kind, eta_db, trials",
        [
            ("dp_16qam", 4.0, 10_000),
            pytest.param("dp_qpsk", 14.0, 20_000, marks=saturated),  # the spread is 12-33x the stderr
            # perfect's spread is 6.4x its stderr, and its largest |z| against the exact MI is 122
            pytest.param("dp_16qam", 20.0, 20_000, marks=saturated),
        ],
        ids=["dp_16qam-4dB", "dp_qpsk-14dB", "dp_16qam-20dB"],
    )
    def test_spread_matches_stderr(self, kind, eta_db, trials):
        eta = 10.0 ** (eta_db / 10.0)
        constellation = make_constellation(kind, 2, eta)
        runs = [air_discrete_paired_mc(constellation, eta, 8, trials, np.random.default_rng(seed)) for seed in range(20)]
        for estimate in ("ls", "kabsch", "perfect", "ls-kabsch", "ls-perfect", "kabsch-perfect"):
            spread = np.std([run[estimate].value for run in runs], ddof=1)
            ratio = spread / np.median([run[estimate].std_error for run in runs])
            assert 1 / 3 <= ratio <= 3, (estimate, ratio)
        # Each run's own stderr against the exact MI: the z-scores have mean 0 and sd 1.
        exact = 2 * constellation.n * scalar_awgn_mi_quadrature(constellation.pam_levels, 1.0)
        z = np.array([(run["perfect"].value - exact) / run["perfect"].std_error for run in runs])
        assert abs(z.mean()) <= 3 / np.sqrt(len(z)), z.mean()
        assert 1 / 3 <= np.std(z, ddof=1) <= 3, np.std(z, ddof=1)
        assert np.abs(z).max() <= 4, z

    @pytest.mark.parametrize("driver", [air_gaussian_paired_mc, air_corollary4_paired_mc])
    @pytest.mark.parametrize("eta_db", [4.0, 20.0])
    def test_gaussian_spread_matches_stderr(self, driver, eta_db):
        # The Gaussian drivers at n = 2, L = 8 and 10,000 trials: each kind and the paired ls-kabsch gap.
        eta = 10.0 ** (eta_db / 10.0)
        runs = [driver(2, eta, 8, 10_000, np.random.default_rng(seed)) for seed in range(20)]
        for estimate in ("ls", "kabsch", "ls-kabsch"):
            spread = np.std([run[estimate].value for run in runs], ddof=1)
            ratio = spread / np.median([run[estimate].std_error for run in runs])
            assert 1 / 3 <= ratio <= 3, (estimate, ratio)


class TestAirEstimate:
    def test_mc_requires_trials(self):
        # Monte Carlo estimates are checked for enough trials where they are made.
        eta = 10.0
        c = make_constellation("dp_qpsk", 2, eta)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            air_gaussian_paired_mc(2, eta, 8, 10, rng)
        with pytest.raises(ValueError):
            air_synthetic_mc(2, 1e-2, 10.0, 10, rng)
        with pytest.raises(ValueError):
            air_discrete_paired_mc(c, eta, 8, 999, rng)

    def test_finite_value_required(self):
        with pytest.raises(ValueError):
            AirEstimate(value=float("nan"))

    @pytest.mark.parametrize("std_error", [-1.0, float("nan"), float("inf")])
    def test_finite_nonnegative_std_error_required(self, std_error):
        with pytest.raises(ValueError, match="^std_error must be finite and >= 0$"):
            AirEstimate(value=1.0, std_error=std_error)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_positive_trials_required(self, trials):
        with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
            AirEstimate(value=1.0, trials=trials)


class TestFig2Shape:
    def test_interior_maximum_at_mid_error(self):
        # for e2 = 1e-2 the closed unitary-model curve peaks at
        # eta = 1/(n^2 e2) - 1 = 24 (13.8 dB), inside a 0-20 dB grid
        e2, n = 1e-2, 2
        grid_db = np.arange(0.0, 21.0)
        values = [air_corollary4(n, 10 ** (db / 10.0), n**3 * e2).value for db in grid_db]
        am = int(np.argmax(values))
        assert 0 < am < len(values) - 1

    def test_unimodal_over_wide_grid(self):
        # rises then falls: a single sign change of the discrete slope when
        # the grid brackets the analytic peak
        n = 2
        for e2 in (1e-3, 1e-2, 1e-1):
            grid_db = np.arange(-10.0, 40.0, 0.5)
            values = np.array(
                [air_corollary4(n, 10 ** (db / 10.0), n**3 * e2).value for db in grid_db]
            )
            slopes_positive = np.diff(values) > 0
            switches = np.sum(np.abs(np.diff(slopes_positive.astype(int))))
            assert switches == 1

    def test_unitary_model_dominates_general(self):
        rng_seed = itertools.count(500)
        for e2 in (1e-3, 1e-2, 1e-1):
            for eta_db in (0.0, 10.0, 20.0):
                eta = 10 ** (eta_db / 10.0)
                unitary = air_corollary4(2, eta, 2**3 * e2).value
                general = air_synthetic_mc(2, e2, eta, 5000, np.random.default_rng(next(rng_seed)))
                assert unitary >= general.value - 3 * general.std_error
