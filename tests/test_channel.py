import itertools

import numpy as np
import pytest

from polair.air import (
    air_corollary4,
    air_corollary4_paired_mc,
    air_discrete_paired_mc,
    air_gaussian_paired_mc,
    air_synthetic_mc,
    capacity_perfect,
)
from polair.channel import (
    Constellation,
    make_constellation,
    make_pilots,
)
from polair.estimators import statistic_sampler

from oracles import dagger, fro_norm


# Every entry point that takes an SNR, as the per-channel eta or (make_pilots only) the pilot power P = n eta.
SNR_ENTRIES = {
    "make_pilots": lambda value: make_pilots(2, 8, value),
    "make_constellation": lambda value: make_constellation("dp_qpsk", 2, value),
    "capacity_perfect": lambda value: capacity_perfect(2, value),
    "air_corollary4": lambda value: air_corollary4(2, value, 0.1),
    "air_synthetic_mc": lambda value: air_synthetic_mc(2, 0.01, value, 200, np.random.default_rng(0)),
    "statistic_sampler": lambda value: statistic_sampler(2, value, 8),
    "air_gaussian_paired_mc": lambda value: air_gaussian_paired_mc(2, value, 8, 100, np.random.default_rng(0)),
    "air_corollary4_paired_mc": lambda value: air_corollary4_paired_mc(2, value, 8, 100, np.random.default_rng(0)),
    "air_discrete_paired_mc": lambda value: air_discrete_paired_mc(
        make_constellation("dp_qpsk", 2, 1.0), value, 8, 1000, np.random.default_rng(0)
    ),
}


class TestSnrChecks:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")], ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("entry", SNR_ENTRIES)
    def test_nonpositive_or_nonfinite_rejected(self, entry, value):
        # One rule and one message everywhere, naming the argument the caller passed; no RuntimeWarning first.
        name = "power" if entry == "make_pilots" else "eta"
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            SNR_ENTRIES[entry](value)

    @pytest.mark.parametrize("entry", ["make_pilots", "air_gaussian_paired_mc", "air_corollary4_paired_mc", "air_synthetic_mc"])
    def test_single_dimension_rejected(self, entry):
        calls = {
            "make_pilots": lambda: make_pilots(1, 8, 1.0),
            "air_gaussian_paired_mc": lambda: air_gaussian_paired_mc(1, 1.0, 8, 100, np.random.default_rng(0)),
            "air_corollary4_paired_mc": lambda: air_corollary4_paired_mc(1, 1.0, 8, 100, np.random.default_rng(0)),
            "air_synthetic_mc": lambda: air_synthetic_mc(1, 0.01, 10.0, 200, np.random.default_rng(0)),
        }
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            calls[entry]()

    @pytest.mark.parametrize("n", [0, -1])
    def test_synthetic_dimension_message(self, n):
        # The dimension rule's message, not one about an argument the caller never passed or numpy's own.
        with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
            air_synthetic_mc(n, 0.01, 10.0, 200, np.random.default_rng(0))


class TestConstellation:
    def test_dp_qpsk_constant_modulus(self):
        c = make_constellation("dp_qpsk", 2, 1.0)  # total symbol power n eta = 2
        assert c.size == 16
        energies = np.sum(np.abs(c.points) ** 2, axis=1)
        assert np.allclose(energies, 2.0, atol=1e-12)

    def test_dp_16qam_energy_and_mean(self):
        c = make_constellation("dp_16qam", 2, 1.0)
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_must_be_positive(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            Constellation(n=n, pam_levels=[1.0])

    def test_points_match_square_qam_product(self):
        # Reference: normalize one polarization's complex square QAM, then take its product over the two; bit for bit.
        for kind, side in [("dp_qpsk", 2), ("dp_16qam", 4)]:
            levels = np.arange(-(side - 1), side, 2, dtype=float)
            re, im = np.meshgrid(levels, levels, indexing="ij")
            qam = (re + 1j * im).ravel()
            for eta_db in np.linspace(-10.0, 40.0, 101):
                eta = 10.0 ** (eta_db / 10.0)
                per_pol = qam * np.sqrt(eta / np.mean(np.abs(qam) ** 2))
                want = np.array(list(itertools.product(per_pol, repeat=2)), dtype=complex)
                assert np.array_equal(make_constellation(kind, 2, eta).points, want), (kind, eta_db)

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
        with pytest.raises(ValueError, match="^L must be a multiple of n, got L=3, n=2$"):
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
