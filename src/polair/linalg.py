"""Dense complex linear algebra for small matrices (2 <= n <= 8).

Thin, validated wrappers around numpy's LAPACK-backed routines plus the
random sampling primitives used throughout the simulator: Haar-distributed
unitary matrices and circularly symmetric complex Gaussian draws.

All functions are pure; arrays are never modified in place. Random sampling
takes an explicit ``numpy.random.Generator`` so that streams can be split
deterministically by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularMatrixError",
    "SvdResult",
    "as_complex_matrix",
    "as_complex_vector",
    "matmul",
    "dagger",
    "trace",
    "det",
    "fro_norm",
    "inverse",
    "svd",
    "haar_unitary",
    "sample_cgauss",
    "sample_cgauss_vector",
]

# Smallest acceptable singular value relative to ||A||_F before a matrix is
# declared singular.
_SINGULARITY_RTOL = 1e-13


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix is singular to working tolerance."""


def as_complex_matrix(A, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``A`` to a 2-D complex ndarray.

    Rejects empty shapes and non-finite entries.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_complex_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and convert ``v`` to a 1-D complex ndarray."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.shape[0] < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _require_square(A: np.ndarray, name: str) -> None:
    if A.shape[-2] != A.shape[-1]:
        raise ValueError(f"{name} must be square, got {A.shape}")


def matmul(A, B) -> np.ndarray:
    """Complex matrix product with an explicit dimension check."""
    A = as_complex_matrix(A, "A")
    B = as_complex_matrix(B, "B")
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    return A @ B


def dagger(A) -> np.ndarray:
    """Conjugate transpose. Supports stacked (..., m, n) inputs."""
    A = np.asarray(A, dtype=complex)
    return np.conj(np.swapaxes(A, -2, -1))


def trace(A) -> complex:
    """Trace of a square matrix."""
    A = as_complex_matrix(A, "A")
    _require_square(A, "A")
    return complex(np.trace(A))


def det(A) -> complex:
    """Determinant of a square matrix."""
    A = as_complex_matrix(A, "A")
    _require_square(A, "A")
    return complex(np.linalg.det(A))


def fro_norm(A) -> float:
    """Frobenius norm sqrt(sum |a_ij|^2)."""
    A = np.asarray(A, dtype=complex)
    return float(np.sqrt(np.sum(np.abs(A) ** 2)))


def inverse(A) -> np.ndarray:
    """Inverse of a square matrix.

    Raises :class:`SingularMatrixError` when the smallest singular value is
    below ``1e-13 * ||A||_F``.
    """
    A = as_complex_matrix(A, "A")
    _require_square(A, "A")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] < _SINGULARITY_RTOL * max(fro_norm(A), np.finfo(float).tiny):
        raise SingularMatrixError("matrix is singular to working tolerance")
    return np.linalg.inv(A)


@dataclass(frozen=True)
class SvdResult:
    """SVD of a square matrix A = U diag(s) V^dagger.

    ``U`` and ``V`` are unitary; ``singular_values`` are nonnegative and
    sorted in descending order.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.singular_values) @ dagger(self.V)


def svd(A) -> SvdResult:
    """Singular value decomposition of a square complex matrix.

    Non-convergence in the underlying LAPACK driver propagates as
    ``numpy.linalg.LinAlgError``.
    """
    A = as_complex_matrix(A, "A")
    _require_square(A, "A")
    U, s, Vh = np.linalg.svd(A)
    return SvdResult(U=U, singular_values=s, V=dagger(Vh))


def haar_unitary(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Sample Haar-distributed n x n unitary matrices.

    Uses the QR decomposition Z = QR of a complex Ginibre matrix and returns
    Q diag(d/|d|), d = diag(R), the phase correction that makes the map
    measure-correct (Mezzadri 2007).

    Parameters
    ----------
    n : matrix dimension, >= 1.
    rng : random generator (not shareable across threads).
    size : if given, return a stack of shape (size, n, n).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    shape = (n, n) if size is None else (size, n, n)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    # A zero diagonal entry has probability zero but would break the phase
    # normalization; resample such draws.
    while np.any(np.abs(d) == 0.0):
        bad = np.abs(d) == 0.0
        if size is None:
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        else:
            rows = np.any(bad, axis=-1)
            z[rows] = rng.standard_normal((int(rows.sum()), n, n)) + 1j * rng.standard_normal(
                (int(rows.sum()), n, n)
            )
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = d / np.abs(d)
    return q * phases[..., None, :]


def sample_cgauss(shape, variance_per_entry: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. circularly symmetric complex Gaussian array.

    Each entry has total variance ``variance_per_entry`` split equally
    between the real and imaginary parts.
    """
    if variance_per_entry <= 0:
        raise ValueError(f"variance_per_entry must be > 0, got {variance_per_entry}")
    scale = np.sqrt(variance_per_entry / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_cgauss_vector(n: int, variance_per_entry: float, rng: np.random.Generator) -> np.ndarray:
    """Length-n circularly symmetric complex Gaussian vector."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sample_cgauss((n,), variance_per_entry, rng)
