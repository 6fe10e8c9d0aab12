"""Small complex-matrix helpers and the simulator's random sampling primitives.

The helpers validate a matrix argument (:func:`as_complex_matrix`,
:func:`check_hermitian_psd`), form a conjugate transpose (:func:`dagger`)
and a Frobenius norm (:func:`fro_norm`); products, inverses and
factorizations are numpy's, called directly where they are needed. The
samplers draw Haar-distributed unitary matrices and circularly symmetric
complex Gaussian arrays, both vectorized over a stack of draws; :func:`mc_blocks`
is the package's one Monte Carlo block loop.

Input arrays are never modified; a sampler may fill its own fresh buffer in
place. Random sampling takes an explicit ``numpy.random.Generator`` so that
streams can be split deterministically by the caller.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_complex_matrix",
    "check_hermitian_psd",
    "dagger",
    "fro_norm",
    "haar_unitary",
    "sample_cgauss",
]


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


def check_hermitian_psd(Q, name: str) -> np.ndarray:
    """Validate ``Q`` as a Hermitian positive semidefinite matrix, to a 1e-10 relative tolerance."""
    Q = as_complex_matrix(Q, name)
    scale = max(1.0, fro_norm(Q))
    if fro_norm(Q - dagger(Q)) > 1e-10 * scale:
        raise ValueError(f"{name} is not Hermitian to tolerance")
    if np.min(np.linalg.eigvalsh(0.5 * (Q + dagger(Q)))) < -1e-10 * scale:
        raise ValueError(f"{name} is not positive semidefinite to tolerance")
    return Q


def dagger(A) -> np.ndarray:
    """Conjugate transpose. Supports stacked (..., m, n) inputs."""
    A = np.asarray(A, dtype=complex)
    return np.conj(np.swapaxes(A, -2, -1))


def fro_norm(A) -> float:
    """Frobenius norm sqrt(sum |a_ij|^2)."""
    A = np.asarray(A, dtype=complex)
    return float(np.sqrt(np.sum(np.abs(A) ** 2)))


def haar_unitary(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Sample Haar-distributed n x n unitary matrices.

    Uses the QR decomposition Z = QR of a complex Ginibre matrix and returns
    Q diag(d/|d|), d = diag(R), the phase correction that makes the map
    measure-correct (Mezzadri 2007). A zero entry of d, which has
    probability zero, keeps its column of Q unchanged.

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
    phases = np.divide(d, np.abs(d), out=np.ones_like(d), where=d != 0)
    return q * phases[..., None, :]


def sample_cgauss(shape, variance_per_entry: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. circularly symmetric complex Gaussian array, C-contiguous complex128.

    Each entry has total variance ``variance_per_entry`` split equally
    between the real and imaginary parts, drawn interleaved into one buffer.
    """
    if variance_per_entry <= 0:
        raise ValueError(f"variance_per_entry must be > 0, got {variance_per_entry}")
    z = rng.standard_normal((*np.atleast_1d(shape), 2))
    z *= np.sqrt(variance_per_entry / 2.0)
    return z.view(complex)[..., 0]


MC_BLOCK = 2048  # trials per Monte Carlo block


# Not in __all__: the per-layer tracer wraps exported functions and would book the rates' time to this loop.
def mc_blocks(step, trials: int, rng: np.random.Generator) -> list:
    """``step(b, block_rng)`` on each block of :data:`MC_BLOCK` trials (the last may be short), in block order.

    Block k draws only from the k-th generator of ``rng.spawn(n_blocks)``: a
    result depends on the seed and the block size, not on evaluation order.
    """
    starts = range(0, trials, MC_BLOCK)
    return [step(min(MC_BLOCK, trials - start), gen) for start, gen in zip(starts, rng.spawn(len(starts)))]
