import itertools

import numpy as np
import pytest

from polair.channel import (
    ChannelParams,
    Constellation,
    make_constellation,
    make_pilots,
)

from oracles import dagger, fro_norm


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

    def test_gaussian_kind_raises(self):
        # A Gaussian input is handled in closed form and has no constellation.
        with pytest.raises(ValueError, match="unsupported constellation kind"):
            make_constellation("gaussian", 2, 2.0)

    @pytest.mark.parametrize(
        "levels",
        [[], [[-1.0, 1.0]], [-1.0, 1.0, 1.0], [1.0, -1.0], [-1.0, float("nan")]],
        ids=["empty", "2-D", "repeated", "unsorted", "nan"],
    )
    def test_pam_levels_must_be_a_sorted_alphabet(self, levels):
        with pytest.raises(ValueError, match="strictly increasing 1-D"):
            Constellation(n=2, pam_levels=levels)

    def test_points_match_square_qam_product(self):
        # Reference: normalize one polarization's complex square QAM, then take its product over the two; bit for bit.
        for kind, side in [("dp_qpsk", 2), ("dp_16qam", 4)]:
            levels = np.arange(-(side - 1), side, 2, dtype=float)
            re, im = np.meshgrid(levels, levels, indexing="ij")
            qam = (re + 1j * im).ravel()
            for eta_db in np.linspace(-10.0, 40.0, 101):
                power = 2 * 10.0 ** (eta_db / 10.0)
                per_pol = qam * np.sqrt((power / 2) / np.mean(np.abs(qam) ** 2))
                want = np.array(list(itertools.product(per_pol, repeat=2)), dtype=complex)
                assert np.array_equal(make_constellation(kind, 2, power).points, want), (kind, eta_db)

    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            make_constellation("dp_qpsk", 4, 2.0)
        with pytest.raises(ValueError):
            make_constellation("8psk", 2, 2.0)

    @pytest.mark.parametrize("kind, side", [("dp_qpsk", 2), ("dp_16qam", 4)])
    def test_pam_levels_of_product_inputs(self, kind, side):
        c = make_constellation(kind, 2, 2.0)
        levels = c.pam_levels
        assert levels.size == side and np.all(np.diff(levels) > 0)
        assert np.allclose(levels, -levels[::-1], atol=1e-15)  # symmetric PAM
        coords = {tuple(row) for row in c.points.view(float)}
        assert coords == set(itertools.product(levels, repeat=4))  # the full product over Re, Im of 2 components


class TestPilots:
    def test_minimal_pilot_block(self):
        # n=2, L=2: D = [[a, a], [a, -a]] with a = (1+i)/sqrt(2) satisfies
        # D D^dagger = 2 I (direct multiplication).
        D = make_pilots(2, 2, 2.0)
        a = (1 + 1j) / np.sqrt(2)
        assert np.allclose(D, np.array([[a, a], [a, -a]]), atol=1e-12)
        assert np.allclose(D @ dagger(D), 2.0 * np.eye(2), atol=1e-12)

    def test_gram_identity(self):
        D = make_pilots(2, 8, 2.0)
        assert fro_norm(D @ dagger(D) - 8.0 * np.eye(2)) < 1e-12

    @pytest.mark.parametrize("n,L", [(2, 4), (2, 16), (4, 8), (8, 16), (3, 9)])
    def test_gram_identity_general(self, n, L):
        P = 3.0
        D = make_pilots(n, L, P)
        assert fro_norm(D @ dagger(D) - (P * L / n) * np.eye(n)) <= 1e-10

    def test_not_multiple_rejected(self):
        with pytest.raises(ValueError):
            make_pilots(2, 3, 2.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            make_pilots(4, 2, 2.0)

    def test_deterministic(self):
        assert np.array_equal(make_pilots(2, 8, 2.0), make_pilots(2, 8, 2.0))

    def test_qpsk_alphabet(self):
        D = make_pilots(2, 8, 2.0)
        # every entry is (+-1 +- i)/sqrt(2) scaled to per-channel power P/n
        mags = np.abs(D)
        assert np.allclose(mags, 1.0, atol=1e-12)
        phases = np.angle(D) / (np.pi / 4)
        assert np.allclose(phases, np.round(phases), atol=1e-12)
