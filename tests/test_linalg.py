import numpy as np
import pytest

from polair.linalg import (
    haar_unitary,
    sample_cgauss,
)

from oracles import as_complex_matrix, dagger, fro_norm


def random_complex(shape, rng, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestBasics:
    def test_dagger(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(dagger(A), np.array([[0, 0], [1, 0]], dtype=complex))

    def test_det_of_unitary_has_unit_modulus(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            U = haar_unitary(3, rng)
            assert abs(abs(np.linalg.det(U)) - 1.0) < 1e-10

    def test_fro_norm_identity(self):
        for n in (1, 2, 4, 8):
            assert fro_norm(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestInverse:
    def test_unitary_inverse_is_dagger(self):
        rng = np.random.default_rng(3)
        U = haar_unitary(4, rng)
        assert fro_norm(np.linalg.inv(U) - dagger(U)) < 1e-10


def eigvals_2x2_charpoly(G):
    """Eigenvalues of a 2x2 matrix from its characteristic polynomial.

    Independent of any SVD/eig library routine: lambda^2 - tr*lambda + det.
    """
    tr = G[0, 0] + G[1, 1]
    dt = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    disc = np.sqrt(tr * tr - 4 * dt)
    return (tr + disc) / 2, (tr - disc) / 2


def svd(A):
    """numpy's SVD as (U, singular values, V), with A = U diag(s) V^dagger.

    It is the factorization behind the Kabsch estimator and the unitary
    synthetic error model (U V^dagger), and the reference for any
    closed-form replacement of it.
    """
    U, s, Vh = np.linalg.svd(A)
    return U, s, dagger(Vh)


def reconstruct(U, s, V):
    return (U * s) @ dagger(V)


class TestSvd:
    def test_identity(self):
        U, s, V = svd(np.eye(2))
        assert np.allclose(s, [1.0, 1.0])
        assert fro_norm(U @ dagger(V) - np.eye(2)) < 1e-12

    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])

    def test_against_charpoly_eigenvalues_of_gram(self):
        # Singular values of A are the square roots of the eigenvalues of
        # A^dagger A, computed here by the quadratic formula.
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = random_complex((2, 2), rng)
            U, s, V = svd(A)
            G = dagger(A) @ A
            lam_hi, lam_lo = eigvals_2x2_charpoly(G)
            expected = np.sqrt(np.array([lam_hi.real, lam_lo.real]))
            assert np.allclose(s, expected, atol=1e-9)
            assert fro_norm(reconstruct(U, s, V) - A) <= 1e-9 * max(1.0, fro_norm(A))

    @pytest.mark.parametrize("n", [2, 4])
    def test_roundtrip_many(self, n):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            A = random_complex((n, n), rng)
            U, s, V = svd(A)
            assert fro_norm(U @ dagger(U) - np.eye(n)) <= 1e-10
            assert fro_norm(V @ dagger(V) - np.eye(n)) <= 1e-10
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)
            assert fro_norm(reconstruct(U, s, V) - A) <= 1e-9 * max(1.0, fro_norm(A))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        A = random_complex((3, 3), rng)
        r1, r2 = svd(A), svd(A)
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[1], r2[1])


class TestHaarUnitary:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_unitarity(self, n):
        rng = np.random.default_rng(7)
        U = haar_unitary(n, rng, size=50)
        err = np.abs(U @ dagger(U) - np.eye(n)).max(axis=(1, 2))
        assert np.all(err * n <= 1e-12)  # crude fro bound from max entry

    def test_first_entry_moment(self):
        # Haar moment: E[|u11|^2] = 1/n.
        n, draws = 2, 100_000
        rng = np.random.default_rng(8)
        U = haar_unitary(n, rng, size=draws)
        samples = np.abs(U[:, 0, 0]) ** 2
        se = samples.std(ddof=1) / np.sqrt(draws)
        assert abs(samples.mean() - 1.0 / n) < 3 * se

    def test_first_entry_fourth_moment(self):
        # Haar moment: E[|u11|^4] = 2/(n(n+1)).
        for n in (2, 4):
            draws = 100_000
            U = haar_unitary(n, np.random.default_rng(10 + n), size=draws)
            samples = np.abs(U[:, 0, 0]) ** 4
            se = samples.std(ddof=1) / np.sqrt(draws)
            assert abs(samples.mean() - 2.0 / (n * (n + 1))) < 3 * se

    @pytest.mark.parametrize("size", [None, 3])
    def test_zero_diagonal_draw(self, size):
        # A Ginibre draw with a zero first column gives R[0, 0] = 0; the phase
        # of that column is 1, and the result is still a finite unitary.
        class ZeroColumnRng:
            def __init__(self):
                self.rng = np.random.default_rng(12)

            def standard_normal(self, shape):
                z = self.rng.standard_normal(shape)
                z[..., 0] = 0.0
                return z

        U = haar_unitary(2, ZeroColumnRng(), size=size)
        assert np.all(np.isfinite(U))
        assert np.abs(U @ dagger(U) - np.eye(2)).max() <= 1e-12

    def test_seed_determinism(self):
        a = haar_unitary(4, np.random.default_rng(99))
        b = haar_unitary(4, np.random.default_rng(99))
        assert np.array_equal(a, b)


class TestComplexGaussian:
    def test_energy(self):
        rng = np.random.default_rng(9)
        z = sample_cgauss((100_000, 2), 1.0, rng)
        energy = np.sum(np.abs(z) ** 2, axis=1)
        assert abs(energy.mean() - 2.0) < 0.02 * 2.0

    def test_zero_mean_and_circularity(self):
        rng = np.random.default_rng(10)
        z = sample_cgauss((100_000,), 1.0, rng)
        se = 1.0 / np.sqrt(z.size)
        assert abs(z.mean()) < 3 * se
        # non-conjugated second moment vanishes for circular symmetry
        assert abs((z * z).mean()) < 3 * se

    def test_nonpositive_variance(self):
        for variance in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^variance_per_entry must be finite and > 0"):
                sample_cgauss((2,), variance, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(7,), (1, 1), (3, 2, 8)])
    def test_output_layout(self, shape):
        # One interleaved buffer viewed as complex: a plain complex128 array the caller may fill in place.
        z = sample_cgauss(shape, 2.0, np.random.default_rng(11))
        assert z.shape == shape and z.dtype == np.complex128
        assert z.flags.c_contiguous and z.flags.writeable
        z += 1.0

    def test_second_moments_within_five_sigma(self):
        # Re z, Im z ~ N(0, v/2) independent: |z|^2 has variance v^2, z^2 has
        # real and imaginary parts of variance v^2, Re z Im z has variance v^2/4.
        v, n = 3.0, 1_000_000
        z = sample_cgauss((n,), v, np.random.default_rng(12))
        se = v / np.sqrt(n)
        assert abs(np.mean(z.real**2 + z.imag**2) - v) < 5 * se
        m2 = np.mean(z * z)  # circularity: E[z^2] = 0
        assert abs(m2.real) < 5 * se and abs(m2.imag) < 5 * se
        assert abs(np.mean(z.real * z.imag)) < 5 * se / 2
