
import re
import warnings

import numpy as np
import pytest

import polair.estimators
from polair.air import air_corollary4_paired_mc
from polair.channel import make_pilots
from polair.estimators import (
    ESTIMATOR_KINDS,
    ESTIMATORS,
    UNITARY_KINDS,
    estimate_kabsch,
    estimate_ls,
    statistic_sampler,
)
from polair.linalg import MC_BLOCK, haar_unitary, matmul_last, sample_cgauss

from oracles import dagger, error_covariance, fro_norm


def statistic(X, D, c):
    """The pilot statistic A = X D^dagger and its scale c = eta L, D D^dagger = c I."""
    return X @ dagger(D), c


def pilot_block(n=2, L=8, eta=10.0, seed=0):
    """A received n x L pilot block at SNR eta; returns the scale c = eta L, D, H, X and the rng."""
    rng = np.random.default_rng(seed)
    D = make_pilots(n, L, eta)
    H = haar_unitary(n, rng)
    X = H @ D + sample_cgauss((n, L), 1.0, rng)
    return eta * L, D, H, X, rng


class TestLeastSquares:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(1)
        D = make_pilots(2, 8, 1.0)
        for _ in range(20):
            H = haar_unitary(2, rng)
            assert fro_norm(estimate_ls(*statistic(H @ D, D, 8.0)) - H) < 1e-10

    @pytest.mark.parametrize("L", [2, 4, 16])
    def test_noiseless_recovery_any_length(self, L):
        rng = np.random.default_rng(2)
        D = make_pilots(2, L, 1.0)
        H = haar_unitary(2, rng)
        assert fro_norm(estimate_ls(*statistic(H @ D, D, 1.0 * L)) - H) < 1e-10

    def test_matches_gram_shortcut(self):
        c, D, H, X, _ = pilot_block(L=8)
        shortcut = (1 / c) * X @ dagger(D)
        assert fro_norm(estimate_ls(*statistic(X, D, c)) - shortcut) < 1e-12

    @pytest.mark.parametrize("n, L", [(2, 8), (2, 64), (4, 8)])
    def test_matches_two_matmul_form(self, n, L):
        # Reference: the two batched matmuls X D^dagger (D D^dagger)^-1, on a
        # single block and on stacks with one and two leading axes.
        eta = 10.0
        D = make_pilots(n, L, eta)
        rng = np.random.default_rng(10 + n + L)
        H = haar_unitary(n, rng, size=96)
        X = H @ D + sample_cgauss((96, n, L), 1.0, rng)
        for block in (X[0], X, X.reshape(8, 12, n, L)):
            ref = block @ dagger(D) @ np.linalg.inv(D @ dagger(D))
            got = estimate_ls(*statistic(block, D, eta * L))
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    def test_error_covariance_law(self):
        # Exact law for the LS error with orthogonal pilots:
        # E[E^dagger E] = (n / (eta L)) I_n, i.e. per-entry error variance
        # 1/(eta L) summed over the n rows. R_E is averaged over the
        # production LS estimates, and verified against a brute-force
        # average of Z D^dagger (D D^dagger)^-1 Gram matrices that draws the
        # noise Z itself and never calls estimate_ls.
        n, trials = 2, 10_000
        for eta in (1.0, 10.0, 100.0):
            for L in (8, 16):
                R_E = error_covariance("ls", n, eta, L, trials, np.random.default_rng(7))
                expected = (n / (eta * L)) * np.eye(n)
                atol = 0.05 * n / (eta * L)
                assert np.allclose(R_E, expected, atol=atol)
                assert np.trace(R_E).real == pytest.approx(n * n / (eta * L), rel=0.05)

                D = make_pilots(n, L, eta)
                g = np.random.default_rng(17).standard_normal((2, trials, n, L))
                Z = np.sqrt(0.5) * (g[0] + 1j * g[1])
                E = Z @ dagger(D) @ np.linalg.inv(D @ dagger(D))
                brute = np.mean(dagger(E) @ E, axis=0)
                assert np.allclose(brute, expected, atol=atol)
                assert np.allclose(brute, R_E, atol=atol)

    def test_trace_halves_with_double_pilots(self):
        t8 = np.trace(error_covariance("ls", 2, 2.0, 8, 10_000, np.random.default_rng(8))).real
        t16 = np.trace(error_covariance("ls", 2, 2.0, 16, 10_000, np.random.default_rng(9))).real
        assert t16 == pytest.approx(t8 / 2, rel=0.10)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_scale_must_be_positive(self, c):
        with pytest.raises(ValueError, match="^c must be finite and > 0"):
            estimate_ls(np.eye(2), c)


class TestKabsch:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        D = make_pilots(2, 8, 1.0)
        for _ in range(20):
            H = haar_unitary(2, rng)
            assert fro_norm(estimate_kabsch(H @ D @ dagger(D)) - H) < 1e-10

    def test_always_unitary(self):
        rng = np.random.default_rng(4)
        D = make_pilots(2, 8, 1.0)
        # heavy noise, and a pathological all-zero block
        blocks = [haar_unitary(2, rng) @ D + sample_cgauss((2, 8), s2, rng) for s2 in (0.1, 10.0, 1000.0)]
        for X in blocks + [np.zeros((2, 8), dtype=complex)]:
            H_hat = estimate_kabsch(X @ dagger(D))
            assert np.all(np.isfinite(H_hat))
            assert fro_norm(H_hat @ dagger(H_hat) - np.eye(2)) <= 1e-12

    def test_degenerate_blocks_in_a_stack(self):
        # A normal block, a rank-1 X D^dagger (det 0) and an all-zero block, stacked.
        rng = np.random.default_rng(6)
        D = make_pilots(2, 8, 1.0)
        normal = haar_unitary(2, rng) @ D + sample_cgauss((2, 8), 0.1, rng)
        row = (1.0 - 0.5j) * D[0] + 0.5j * D[1]
        rank1 = np.stack([row, 2.0 * row])  # rows r and 2r: det(X D^dagger) is exactly 0
        X = np.stack([normal, rank1, np.zeros((2, 8), dtype=complex)])
        H_hat = estimate_kabsch(X @ dagger(D))
        assert np.all(np.isfinite(H_hat))
        for U in H_hat:
            assert fro_norm(U @ dagger(U) - np.eye(2)) <= 1e-12
        assert fro_norm(H_hat[0] - estimate_kabsch(normal @ dagger(D))) <= 1e-12
        assert np.array_equal(H_hat[2], np.eye(2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_matrix_is_independent_of_the_layout(self, n):
        # Alone, in a contiguous stack, in a strided view and broadcast, every
        # matrix, A = 0 and singular ones too, gets the same bits and no warning,
        # and no input is written to.
        draw, _ = statistic_sampler(n, 10.0, 4 * n)
        stack = draw(MC_BLOCK + 7, np.random.default_rng(41))
        stack[3] = 0.0
        stack[5, 1] = stack[5, 0]  # equal rows: det A is exactly 0
        stack[8, :, 1] = 0.0  # a zero column
        stack[9] = np.diag([1.0] * (n - 1) + [1e-310j])  # a subnormal det A, whose reciprocal would overflow
        stack[10] = overflowing(n)
        before = stack.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H_hat = estimate_kabsch(stack)
            view = np.ascontiguousarray(np.moveaxis(stack, 0, -1)).transpose(2, 0, 1)
            assert not view.flags.c_contiguous
            assert np.array_equal(estimate_kabsch(view), H_hat)
            assert np.array_equal(np.stack([estimate_kabsch(A) for A in stack]), H_hat)
            for k in (0, 3, 5, 8, 9, 10):
                shared = estimate_kabsch(np.broadcast_to(stack[k], (3, n, n)))
                assert np.array_equal(shared, np.broadcast_to(H_hat[k], (3, n, n)))
        assert np.array_equal(stack, before)
        assert np.array_equal(H_hat[3], np.eye(n))
        for k in (5, 8, 10):
            assert fro_norm(H_hat[k] @ dagger(H_hat[k]) - np.eye(n)) <= 1e-12
        assert fro_norm(H_hat[9] - np.diag([1.0] * (n - 1) + [1j])) <= 1e-12

    def test_rank_deficient_input_still_unitary(self):
        D = make_pilots(2, 8, 1.0)
        X = np.zeros((2, 8), dtype=complex)
        X[0] = D[0]
        H_hat = estimate_kabsch(X @ dagger(D))
        assert fro_norm(H_hat @ dagger(H_hat) - np.eye(2)) <= 1e-12

    def test_extreme_scales_match_svd(self):
        # Squares of entries near 1e160 overflow and near 1e-160 underflow, and
        # the reciprocal of a subnormal largest entry (1e-310) would overflow;
        # the polar factor does not depend on the scale of X.
        rng = np.random.default_rng(8)
        D = make_pilots(2, 8, 1.0)
        X = haar_unitary(2, rng) @ D + sample_cgauss((2, 8), 1.0, rng)
        U, _, Vh = np.linalg.svd(X @ dagger(D))
        for scale in (1e-310, 1e-160, 1e160):
            assert fro_norm(estimate_kabsch((scale * X) @ dagger(D)) - U @ Vh) <= 1e-12

    def test_half_error_of_ls_at_high_snr(self):
        # Paired trials: both estimators see the same channel/noise draws.
        n, L, trials = 2, 8, 10_000
        for eta_db in (10.0, 20.0):
            eta = 10.0 ** (eta_db / 10.0)
            rng = np.random.default_rng(11)
            D = make_pilots(n, L, eta)
            H = haar_unitary(n, rng, size=trials)
            X = H @ D + sample_cgauss((trials, n, L), 1.0, rng)
            A, c = statistic(X, D, eta * L)
            e_ls = H - estimate_ls(A, c)
            e_k = H - estimate_kabsch(A)
            t_ls = np.sum(np.abs(e_ls) ** 2)
            t_k = np.sum(np.abs(e_k) ** 2)
            assert 0.4 <= t_k / t_ls <= 0.6


class TestKabschCrossCheck:
    """The n = 2 closed form and the n > 2 Newton-Schulz iteration against the SVD polar factor U V^dagger."""

    def test_closed_form_matches_svd(self):
        n, L, per_snr = 2, 8, 512
        rng = np.random.default_rng(21)
        for eta_db in np.linspace(-10.0, 40.0, 9):  # 4608 blocks
            D = make_pilots(n, L, 10.0 ** (eta_db / 10.0))
            H = haar_unitary(n, rng, size=per_snr)
            X = H @ D + sample_cgauss((per_snr, n, L), 1.0, rng)
            U, _, Vh = np.linalg.svd(X @ dagger(D))
            assert np.max(np.abs(estimate_kabsch(X @ dagger(D)) - U @ Vh)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_larger_n_is_the_svd(self, n):
        per_snr = 256
        rng = np.random.default_rng(22)
        for eta_db in np.linspace(-10.0, 40.0, 9):
            for L in (n, 4 * n):
                D = make_pilots(n, L, 10.0 ** (eta_db / 10.0))
                H = haar_unitary(n, rng, size=per_snr)
                X = H @ D + sample_cgauss((per_snr, n, L), 1.0, rng)
                U, _, Vh = np.linalg.svd(X @ dagger(D))
                assert np.max(np.abs(estimate_kabsch(X @ dagger(D)) - U @ Vh)) <= 1e-12


def degenerate_stack(n=4, seed=23):
    """Normal pilot statistics at 10 dB interleaved with singular, rank-deficient, zero and overflowing matrices.

    Returns the stack and the indices of the normal ones.
    """
    rng = np.random.default_rng(seed)
    draw, _ = statistic_sampler(n, 10.0, 2 * n)
    normal = draw(6, rng)
    equal_rows = normal[0].copy()
    equal_rows[1] = equal_rows[0]  # exactly singular
    zero_column = normal[1].copy()
    zero_column[:, 2] = 0.0  # exactly singular
    u, v = sample_cgauss((2, n, 2), 1.0, rng)
    rank2 = u @ dagger(v)  # rank deficient up to round-off
    rank1 = 1e3 * np.outer(u[:, 0], np.conj(v[:, 0]))
    degenerate = [equal_rows, zero_column, rank2, rank1, np.zeros((n, n), dtype=complex), overflowing(n)]
    stack = np.stack([m for pair in zip(normal, degenerate) for m in pair])
    return stack, np.arange(0, len(stack), 2)


class TestKabschLargerN:
    """The n > 2 polar factor: Newton-Schulz on the stack, the SVD for what does not converge."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_gives_identity(self, n):
        assert np.array_equal(estimate_kabsch(np.zeros((n, n))), np.eye(n))
        assert np.array_equal(estimate_kabsch(np.zeros((3, n, n))), np.broadcast_to(np.eye(n), (3, n, n)))

    def test_degenerate_matrices_take_the_svd(self, monkeypatch):
        stack, normal = degenerate_stack()
        svd_inputs = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            svd_inputs.append(np.array(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H_hat = estimate_kabsch(stack)
        monkeypatch.undo()
        assert np.all(np.isfinite(H_hat))
        for U in H_hat:
            assert fro_norm(U @ dagger(U) - np.eye(4)) <= 1e-12
        # Only the nonzero degenerate matrices reach the fallback, divided by their
        # largest entry parts, and each keeps the SVD polar factor of that scaled
        # matrix. A = 0 is I before the iteration, which takes it in one step.
        degenerate = np.setdiff1d(np.arange(len(stack)), normal)
        nonzero = degenerate[largest_part(stack[degenerate]) > 0]
        assert len(nonzero) == len(degenerate) - 1
        assert len(svd_inputs) == 1 and not np.any(np.all(svd_inputs[0] == 0, axis=(-2, -1)))
        scaled = prologue(stack[nonzero])
        assert np.array_equal(svd_inputs[0], scaled)
        U, _, Vh = np.linalg.svd(scaled)
        assert np.array_equal(H_hat[nonzero], U @ Vh)

    def test_iteration_starts_from_the_largest_entry_part(self, monkeypatch):
        # The first product is X^dagger X of the prologue's scaled stack: each A
        # divided by its largest |Re| or |Im| entry part, part by part, and A = 0
        # as I. A maximum is exact wherever it is taken, so these are the bits of
        # largest_part(A).
        stack, _ = degenerate_stack()
        starts = []

        def recording(X, Y):
            starts.append(np.array(Y))
            return matmul_last(X, Y)

        monkeypatch.setattr(polair.estimators, "matmul_last", recording)
        estimate_kabsch(stack)
        assert np.array_equal(starts[0], np.moveaxis(prologue(stack), 0, -1))

    def test_each_matrix_is_independent_of_the_stack(self):
        stack, normal = degenerate_stack()
        H_hat = estimate_kabsch(stack)
        for k in normal:
            assert np.array_equal(H_hat[k], estimate_kabsch(stack[k]))
        assert np.array_equal(estimate_kabsch(stack[::-1]), H_hat[::-1])

    @pytest.mark.parametrize("n", [3, 4])
    def test_extreme_scales_match_svd(self, n):
        rng = np.random.default_rng(9)
        D = make_pilots(n, 2 * n, 1.0)
        X = haar_unitary(n, rng, size=16) @ D + sample_cgauss((16, n, 2 * n), 1.0, rng)
        U, _, Vh = np.linalg.svd(X @ dagger(D))
        for scale in (1e-310, 1e-160, 1e160):
            assert np.max(np.abs(estimate_kabsch((scale * X) @ dagger(D)) - U @ Vh)) <= 1e-12


def largest_part(stack):
    """The largest |Re| or |Im| entry part of each matrix of a stack (B, n, n)."""
    return np.maximum(np.abs(stack.real), np.abs(stack.imag)).max(axis=(-2, -1))


def prologue(stack):
    """Each matrix of a C-contiguous stack (B, n, n) divided by its largest entry part, Re and Im parts alone; A = 0 as I."""
    scale = largest_part(stack)
    scaled = (stack.view(float) / np.maximum(scale, np.finfo(float).tiny)[:, None, None]).view(complex)
    scaled[scale == 0] = np.eye(stack.shape[-1])
    return scaled


def overflowing(n):
    """A finite n x n matrix whose largest entry modulus overflows a double: |1.5e308 (1 + 1j)| = 2.1e308."""
    A = np.eye(n, dtype=complex)
    A[0, 0] = 1.5e308 * (1 + 1j)
    return A


class TestKabschNonFinite:
    """A non-finite A raises one ValueError at every n, alone or in an otherwise finite stack.

    A finite A whose entry modulus overflows a double is not non-finite: it gets its polar factor, that of A/4.
    """

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1j * np.inf], ids=["nan", "inf", "-inf", "imag-inf"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nonfinite_entry_raises(self, monkeypatch, n, value):
        # No SVD call: LAPACK's SVD of an infinite 3 x 3 matrix does not return.
        def no_svd(*args, **kwargs):
            raise AssertionError("a non-finite A reached the SVD")

        draw, _ = statistic_sampler(n, 10.0, 2 * n)
        stack = draw(5, np.random.default_rng(12))
        stack[3, n - 1, 0] = value
        # Beside or in the same matrix as an entry whose modulus overflows, it still raises.
        overflow = stack.copy()
        overflow[1] = overflowing(n)
        overflow[3, 0, 0] = overflowing(n)[0, 0]
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for A in (stack, stack[3], overflow, overflow[3]):
            with pytest.raises(ValueError, match="^A must be finite$"):
                estimate_kabsch(A)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_overflowing_modulus(self, n):
        big = overflowing(n)
        U, _, Vh = np.linalg.svd(big / 4)
        draw, _ = statistic_sampler(n, 10.0, 2 * n)
        others = draw(5, np.random.default_rng(12))
        stacked = estimate_kabsch(np.concatenate([others[:3], big[None], others[3:]]))
        for H_hat in (estimate_kabsch(big), stacked[3]):
            assert fro_norm(dagger(H_hat) @ H_hat - np.eye(n)) <= 1e-12
            assert fro_norm(H_hat - U @ Vh) <= 1e-12
        assert np.array_equal(np.delete(stacked, 3, axis=0), estimate_kabsch(others))


class TestPilotEnergy:
    """eta and L reach the statistic, and so every estimate, only through the pilot energy c = eta L."""

    @pytest.mark.parametrize("n, L", [(2, 8), (2, 64), (4, 16)])
    def test_halved_pilots_at_doubled_snr_draw_the_same_bits(self, n, L):
        eta = 10.0**0.4
        draws = []
        for eta_k, L_k in ((eta, L), (2.0 * eta, L // 2)):
            draw, c = statistic_sampler(n, eta_k, L_k)
            A = draw(MC_BLOCK + 7, np.random.default_rng(31))
            draws.append((A, c, {kind: estimate(A, c) for kind, estimate in ESTIMATORS.items()}))
        (A0, c0, H0), (A1, c1, H1) = draws
        assert c0 == c1 and np.array_equal(A0, A1)
        for kind in ESTIMATORS:
            assert np.array_equal(H0[kind], H1[kind]), kind


class TestRegistry:
    def test_kinds(self):
        assert ESTIMATOR_KINDS == ("ls", "kabsch")
        assert set(ESTIMATORS) == {"ls", "kabsch"}
        assert UNITARY_KINDS == {"kabsch"}

    def test_entries_match_functions(self):
        c, D, _, X, _ = pilot_block(L=8, seed=22)
        A, c = statistic(X, D, c)
        assert np.array_equal(ESTIMATORS["ls"](A, c), estimate_ls(A, c))
        assert np.array_equal(ESTIMATORS["kabsch"](A, c), estimate_kabsch(A))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 2, 3), (0, 0)])
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_statistic_must_be_square(self, kind, shape):
        # One shape rule for every kind: one n x n statistic or a stack of them, n >= 1.
        with pytest.raises(ValueError, match=re.escape(f"A must be n x n or a stack (..., n, n), got shape {shape}")):
            ESTIMATORS[kind](np.ones(shape), 1.0)

    def test_perfect_is_not_a_pilot_estimator(self):
        # The perfect-CSI reference belongs to the discrete rate, not to the registry.
        assert "perfect" not in ESTIMATORS
        with pytest.raises(ValueError):
            air_corollary4_paired_mc(2, 3.0, 8, 500, np.random.default_rng(0), kinds=("perfect",))
