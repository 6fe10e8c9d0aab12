import numpy as np
import pytest

from polair.channel import (
    ChannelParams,
    make_constellation,
    make_pilots,
    sample_channel,
    transmit,
)
from polair.linalg import dagger, fro_norm, sample_cgauss


class TestChannelParams:
    def test_eta_consistency(self):
        params = ChannelParams(n=2, power=20.0, sigma2=1.0)
        assert params.eta == pytest.approx(10.0, rel=1e-12)

    def test_from_eta_db(self):
        params = ChannelParams.from_eta_db(2, 10.0)
        assert params.eta == pytest.approx(10.0, rel=1e-12)
        assert params.power == pytest.approx(20.0, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [dict(n=1, power=1, sigma2=1), dict(n=2, power=0, sigma2=1), dict(n=2, power=1, sigma2=-1)])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite(self, value):
        with pytest.raises(ValueError, match="finite"):
            ChannelParams(n=2, power=value, sigma2=1.0)
        with pytest.raises(ValueError, match="finite"):
            ChannelParams(n=2, power=1.0, sigma2=value)


class TestConstellation:
    def test_dp_qpsk_constant_modulus(self):
        c = make_constellation("dp_qpsk", 2, 2.0)
        assert c.size == 16
        energies = np.sum(np.abs(c.points) ** 2, axis=1)
        assert np.allclose(energies, 2.0, atol=1e-12)

    def test_dp_16qam_energy_and_mean(self):
        c = make_constellation("dp_16qam", 2, 2.0)
        assert c.size == 256
        assert np.mean(np.sum(np.abs(c.points) ** 2, axis=1)) == pytest.approx(2.0, abs=1e-12)
        assert np.abs(c.points.sum(axis=0)).max() < 1e-12

    def test_gaussian_tag(self):
        c = make_constellation("gaussian", 2, 2.0)
        assert not c.is_discrete
        assert c.points.shape == (0, 2)

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            make_constellation("dp_qpsk", 4, 2.0)
        with pytest.raises(ValueError):
            make_constellation("8psk", 2, 2.0)


class TestPilots:
    def test_minimal_pilot_block(self):
        # n=2, L=2: D = [[a, a], [a, -a]] with a = (1+i)/sqrt(2) satisfies
        # D D^dagger = 2 I (direct multiplication).
        pil = make_pilots(2, 2, 2.0)
        a = (1 + 1j) / np.sqrt(2)
        assert np.allclose(pil.D, np.array([[a, a], [a, -a]]), atol=1e-12)
        assert np.allclose(pil.D @ dagger(pil.D), 2.0 * np.eye(2), atol=1e-12)

    def test_gram_identity(self):
        pil = make_pilots(2, 8, 2.0)
        assert fro_norm(pil.D @ dagger(pil.D) - 8.0 * np.eye(2)) < 1e-12

    @pytest.mark.parametrize("n,L", [(2, 4), (2, 16), (4, 8), (8, 16), (3, 9)])
    def test_gram_identity_general(self, n, L):
        P = 3.0
        pil = make_pilots(n, L, P)
        assert fro_norm(pil.D @ dagger(pil.D) - (P * L / n) * np.eye(n)) <= 1e-10

    def test_not_multiple_rejected(self):
        with pytest.raises(ValueError):
            make_pilots(2, 3, 2.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            make_pilots(4, 2, 2.0)

    def test_deterministic(self):
        a = make_pilots(2, 8, 2.0)
        b = make_pilots(2, 8, 2.0)
        assert np.array_equal(a.D, b.D)

    def test_qpsk_alphabet(self):
        pil = make_pilots(2, 8, 2.0)
        # every entry is (+-1 +- i)/sqrt(2) scaled to per-channel power P/n
        mags = np.abs(pil.D)
        assert np.allclose(mags, 1.0, atol=1e-12)
        phases = np.angle(pil.D) / (np.pi / 4)
        assert np.allclose(phases, np.round(phases), atol=1e-12)


class TestTransmit:
    def test_noiseless_limit(self):
        rng = np.random.default_rng(0)
        H = sample_channel(2, rng)
        S = sample_cgauss((2, 10), 1.0, rng)
        X = transmit(H, S, 1e-30, rng)
        assert fro_norm(X - H @ S) < 1e-12

    def test_noise_variance(self):
        rng = np.random.default_rng(1)
        X = transmit(np.eye(2), np.zeros((2, 50_000)), 0.7, rng)
        var = np.mean(np.abs(X) ** 2)
        assert var == pytest.approx(0.7, rel=0.02)

    def test_energy_split(self):
        rng = np.random.default_rng(2)
        H = sample_channel(2, rng)
        s = sample_cgauss((2, 1), 1.0, rng)
        draws = np.array([np.sum(np.abs(transmit(H, s, 0.5, rng)) ** 2) for _ in range(4000)])
        expected = np.sum(np.abs(H @ s) ** 2) + 2 * 0.5
        assert draws.mean() == pytest.approx(expected, rel=0.05)

    def test_linear_in_signal_for_fixed_noise(self):
        H = sample_channel(2, np.random.default_rng(3))
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        S1 = sample_cgauss((2, 5), 1.0, np.random.default_rng(4))
        S2 = sample_cgauss((2, 5), 1.0, np.random.default_rng(5))
        lhs = transmit(H, S1 + S2, 1.0, rng1) - transmit(H, S1, 1.0, rng2)
        assert fro_norm(lhs - H @ S2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transmit(np.eye(2), np.ones((3, 4)), 1.0, np.random.default_rng(0))
