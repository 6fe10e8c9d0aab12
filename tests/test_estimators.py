import json

import numpy as np
import pytest

from polair.channel import ChannelParams, make_pilots
from polair.estimators import (
    ESTIMATOR_KINDS,
    ESTIMATORS,
    UNITARY_KINDS,
    ErrorStats,
    EstimatorSpec,
    KabschEstimator,
    LeastSquaresEstimator,
    empirical_error_covariance,
    error_stats_to_json,
    estimate_kabsch,
    estimate_ls,
    make_estimator,
)
from polair.linalg import dagger, fro_norm, haar_unitary, sample_cgauss


def pilot_block(n=2, L=8, eta=10.0, sigma2=1.0, seed=0):
    params = ChannelParams(n=n, power=n * sigma2 * eta, sigma2=sigma2)
    rng = np.random.default_rng(seed)
    pilots = make_pilots(n, L, params.power)
    H = haar_unitary(n, rng)
    X = H @ pilots.D + sample_cgauss((n, L), sigma2, rng)
    return params, pilots, H, X, rng


class TestEstimatorSpec:
    def test_dof(self):
        assert EstimatorSpec("ls").dof(2) == 8
        assert EstimatorSpec("kabsch").dof(2) == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EstimatorSpec("mmse")


class TestLeastSquares:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(1)
        pilots = make_pilots(2, 8, 2.0)
        for _ in range(20):
            H = haar_unitary(2, rng)
            assert fro_norm(estimate_ls(H @ pilots.D, pilots) - H) < 1e-10

    @pytest.mark.parametrize("L", [2, 4, 16])
    def test_noiseless_recovery_any_length(self, L):
        rng = np.random.default_rng(2)
        pilots = make_pilots(2, L, 2.0)
        H = haar_unitary(2, rng)
        assert fro_norm(estimate_ls(H @ pilots.D, pilots) - H) < 1e-10

    def test_matches_gram_shortcut(self):
        params, pilots, H, X, _ = pilot_block()
        shortcut = (params.n / (params.power * pilots.L)) * X @ dagger(pilots.D)
        assert fro_norm(estimate_ls(X, pilots) - shortcut) < 1e-12

    def test_error_covariance_law(self):
        # Exact law for the LS error with orthogonal pilots:
        # E[E^dagger E] = (n / (eta L)) I_n, i.e. per-entry error variance
        # 1/(eta L) summed over the n rows. Verified against a brute-force
        # average of Z D^dagger (D D^dagger)^-1 Gram matrices that draws the
        # noise Z itself and never calls estimate_ls.
        n, trials = 2, 10_000
        for eta in (1.0, 10.0, 100.0):
            for L in (8, 16):
                params = ChannelParams(n=n, power=n * eta, sigma2=1.0)
                stats = empirical_error_covariance(
                    ("ls",), params, L, trials, np.random.default_rng(7)
                )["ls"]
                expected = (n / (eta * L)) * np.eye(n)
                atol = 0.05 * n / (eta * L)
                assert np.allclose(stats.R_E, expected, atol=atol)
                assert stats.trace_re == pytest.approx(n * n / (eta * L), rel=0.05)

                D = make_pilots(n, L, params.power).D
                g = np.random.default_rng(17).standard_normal((2, trials, n, L))
                Z = np.sqrt(params.sigma2 / 2.0) * (g[0] + 1j * g[1])
                E = Z @ dagger(D) @ np.linalg.inv(D @ dagger(D))
                brute = np.mean(dagger(E) @ E, axis=0)
                assert np.allclose(brute, expected, atol=atol)
                assert np.allclose(brute, stats.R_E, atol=atol)

    def test_trace_halves_with_double_pilots(self):
        params = ChannelParams(n=2, power=4.0, sigma2=1.0)
        t8 = empirical_error_covariance(("ls",), params, 8, 10_000, np.random.default_rng(8))["ls"].trace_re
        t16 = empirical_error_covariance(("ls",), params, 16, 10_000, np.random.default_rng(9))["ls"].trace_re
        assert t16 == pytest.approx(t8 / 2, rel=0.10)


class TestKabsch:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        pilots = make_pilots(2, 8, 2.0)
        for _ in range(20):
            H = haar_unitary(2, rng)
            assert fro_norm(estimate_kabsch(H @ pilots.D, pilots) - H) < 1e-10

    def test_always_unitary(self):
        rng = np.random.default_rng(4)
        pilots = make_pilots(2, 8, 2.0)
        # heavy noise, including a pathological all-zero block
        for sigma2 in (0.1, 10.0, 1000.0):
            H = haar_unitary(2, rng)
            X = H @ pilots.D + sample_cgauss((2, 8), sigma2, rng)
            H_hat = estimate_kabsch(X, pilots)
            assert fro_norm(H_hat @ dagger(H_hat) - np.eye(2)) <= 1e-12

    def test_rank_deficient_input_still_unitary(self):
        pilots = make_pilots(2, 8, 2.0)
        X = np.zeros((2, 8), dtype=complex)
        X[0] = pilots.D[0]
        H_hat = estimate_kabsch(X, pilots)
        assert fro_norm(H_hat @ dagger(H_hat) - np.eye(2)) <= 1e-12

    def test_half_error_of_ls_at_high_snr(self):
        # Paired trials: both estimators see the same channel/noise draws.
        n, L, trials = 2, 8, 10_000
        for eta_db in (10.0, 20.0):
            params = ChannelParams.from_eta_db(n, eta_db)
            rng = np.random.default_rng(11)
            pilots = make_pilots(n, L, params.power)
            H = haar_unitary(n, rng, size=trials)
            X = H @ pilots.D + sample_cgauss((trials, n, L), params.sigma2, rng)
            e_ls = H - estimate_ls(X, pilots)
            e_k = H - estimate_kabsch(X, pilots)
            t_ls = np.sum(np.abs(e_ls) ** 2)
            t_k = np.sum(np.abs(e_k) ** 2)
            assert 0.4 <= t_k / t_ls <= 0.6


class TestErrorStats:
    def test_hermitian_psd(self):
        params = ChannelParams.from_eta_db(2, 5.0)
        stats = empirical_error_covariance(
            ("kabsch",), params, 8, 500, np.random.default_rng(12)
        )["kabsch"]
        R = stats.R_E
        assert fro_norm(R - dagger(R)) < 1e-12
        assert np.min(np.linalg.eigvalsh(R)) >= -1e-12
        assert stats.error_per_dof >= 0

    def test_kabsch_per_dof_not_above_ls(self):
        for eta_db in (0.0, 10.0, 20.0):
            for L in (8, 16):
                params = ChannelParams.from_eta_db(2, eta_db)
                both = empirical_error_covariance(("ls", "kabsch"), params, L, 2000, np.random.default_rng(13))
                ls, kb = both["ls"], both["kabsch"]
                assert kb.error_per_dof <= ls.error_per_dof * 1.1

    def test_ls_independent_of_other_kinds(self):
        # One call for several kinds shares the draws without changing any kind's result.
        params = ChannelParams.from_eta_db(2, 5.0)
        alone = empirical_error_covariance(("ls",), params, 8, 9000, np.random.default_rng(15))["ls"]
        both = empirical_error_covariance(("kabsch", "ls"), params, 8, 9000, np.random.default_rng(15))
        assert np.array_equal(both["ls"].R_E, alone.R_E)
        assert both["ls"].error_per_dof == alone.error_per_dof

    def test_unknown_kind(self):
        params = ChannelParams.from_eta_db(2, 5.0)
        for kinds in (("mmse",), ("ls", "perfect")):
            with pytest.raises(ValueError):
                empirical_error_covariance(kinds, params, 8, 500, np.random.default_rng(0))

    def test_min_trials(self):
        params = ChannelParams.from_eta_db(2, 10.0)
        with pytest.raises(ValueError):
            empirical_error_covariance(("ls",), params, 8, 50, np.random.default_rng(0))

    def test_json_record(self):
        params = ChannelParams.from_eta_db(2, 10.0)
        stats = empirical_error_covariance(("ls",), params, 8, 500, np.random.default_rng(14))["ls"]
        record = json.loads(error_stats_to_json(stats, params, 8))
        assert record["estimator"] == "ls"
        assert record["n"] == 2 and record["L"] == 8
        assert record["eta_db"] == pytest.approx(10.0)
        assert record["trials"] == 500
        assert record["E2"] == pytest.approx(record["trace_RE"] / (2 * 8))


class TestEstimatorApi:
    def test_fit_predict_roundtrip(self):
        params, pilots, H, X, _ = pilot_block(eta=1000.0, seed=20)
        for cls in (LeastSquaresEstimator, KabschEstimator):
            est = cls().fit(X, pilots)
            assert est.channel_.shape == (2, 2)
            s = np.array([1.0 + 0j, -1.0 + 0j])
            assert np.allclose(est.predict(s), est.channel_ @ s)

    def test_fit_agrees_with_functions(self):
        params, pilots, H, X, _ = pilot_block(seed=21)
        assert np.array_equal(LeastSquaresEstimator().fit(X, pilots).channel_, estimate_ls(X, pilots))
        assert np.array_equal(KabschEstimator().fit(X, pilots).channel_, estimate_kabsch(X, pilots))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            KabschEstimator().predict(np.ones(2))

    def test_params_api(self):
        est = make_estimator("ls")
        assert est.get_params() == {}
        with pytest.raises(ValueError):
            est.set_params(bogus=1)
        with pytest.raises(ValueError):
            make_estimator("mmse")


class TestRegistry:
    def test_kinds(self):
        assert ESTIMATOR_KINDS == ("ls", "kabsch")
        assert set(ESTIMATORS) == {"ls", "kabsch", "perfect"}
        assert UNITARY_KINDS == {"kabsch", "perfect"}

    def test_entries_match_functions_and_classes(self):
        params, pilots, H, X, _ = pilot_block(seed=22)
        assert np.array_equal(ESTIMATORS["ls"](X, pilots, H), estimate_ls(X, pilots))
        assert np.array_equal(ESTIMATORS["kabsch"](X, pilots, H), estimate_kabsch(X, pilots))
        assert ESTIMATORS["perfect"](X, pilots, H) is H
        for kind in ESTIMATOR_KINDS:
            est = make_estimator(kind)
            assert est.kind == kind
            assert np.array_equal(est.fit(X, pilots).channel_, ESTIMATORS[kind](X, pilots, H))

    def test_perfect_is_not_a_pilot_estimator(self):
        with pytest.raises(ValueError):
            make_estimator("perfect")
        with pytest.raises(ValueError):
            EstimatorSpec("perfect")
