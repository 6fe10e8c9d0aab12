"""Batch-last matrix helpers and the simulator's random sampling primitives.

Products, inverses and factorizations are numpy's, called directly where
they are needed. Three helpers (:func:`matmul_last`, :func:`dagger_last`,
:func:`sq_fro_last`) work on batch-last stacks, which the n > 2 kernels and
the LS decoder's Gram matrices use in place of one LAPACK call or stacked
product per small matrix. The samplers draw
Haar-distributed unitary matrices and circularly symmetric complex Gaussian
arrays, both vectorized over a stack of draws; :func:`mc_blocks` is the
package's one Monte Carlo block loop.

Input arrays are never modified; a sampler may fill its own fresh buffer in
place. Random sampling takes an explicit ``numpy.random.Generator`` so that
streams can be split deterministically by the caller.
"""

from __future__ import annotations

import numpy as np

__all__ = ["haar_unitary", "sample_cgauss"]


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


# Not in __all__, like mc_blocks: sample_cgauss calls it once per block, and the tracer would book that time to it.
def check_positive(name: str, value: float) -> None:
    """The package's one rule on a power, variance or SNR: raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (0 < value < np.inf):  # NaN fails both comparisons
        raise ValueError(f"{name} must be finite and > 0, got {value}")


# Not in __all__, like check_positive: the per-layer tracer wraps exported functions, and each call would add a span.
def check_trials(trials: int, minimum: int) -> None:
    """The package's one rule on a Monte Carlo sample size: raise ``ValueError`` unless ``trials >= minimum``."""
    if trials < minimum:
        raise ValueError(f"trials must be >= {minimum}, got {trials}")


def sample_cgauss(shape, variance_per_entry: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. circularly symmetric complex Gaussian array, C-contiguous complex128.

    Each entry has total variance ``variance_per_entry`` split equally
    between the real and imaginary parts, drawn interleaved into one buffer.
    """
    check_positive("variance_per_entry", variance_per_entry)
    z = rng.standard_normal((*np.atleast_1d(shape), 2))
    z *= np.sqrt(variance_per_entry / 2.0)
    return z.view(complex)[..., 0]


# Batch-last stacks: an (n, n, ...) array holds matrices with the matrix index
# last, so that each entry is one contiguous vector over the stack, and a
# product is n broadcast multiply-adds over whole arrays where numpy's stacked
# ``@`` and LAPACK wrappers pay per matrix. Every operation is elementwise and
# sums in a fixed order, so a matrix's result does not depend on the rest of
# the stack. Not in __all__, like mc_blocks: the per-layer tracer would book
# the kernels' time to these helpers.
def matmul_last(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Products X Y of two batch-last stacks of square matrices."""
    C = X[:, :1] * Y[:1]
    term = np.empty_like(C)
    for j in range(1, X.shape[1]):
        C += np.multiply(X[:, j : j + 1], Y[j : j + 1], out=term)
    return C


def dagger_last(X: np.ndarray) -> np.ndarray:
    """Conjugate transposes of a batch-last stack."""
    return np.conj(np.swapaxes(X, 0, 1))


def sq_fro_last(X: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of a batch-last stack, summed entry by entry."""
    sq = X.real**2 + X.imag**2
    total = sq[0, 0].copy()
    for entry in sq.reshape(sq.shape[0] * sq.shape[1], *sq.shape[2:])[1:]:
        total += entry
    return total


MC_BLOCK = 2048  # trials per Monte Carlo block


# Not in __all__: the per-layer tracer wraps exported functions and would book the rates' time to this loop.
def mc_blocks(step, trials: int, rng: np.random.Generator) -> list:
    """``step(b, block_rng)`` on each block of :data:`MC_BLOCK` trials (the last may be short), in block order.

    Block k draws only from the k-th generator of ``rng.spawn(n_blocks)``: a
    result depends on the seed and the block size, not on evaluation order.
    """
    starts = range(0, trials, MC_BLOCK)
    return [step(min(MC_BLOCK, trials - start), gen) for start, gen in zip(starts, rng.spawn(len(starts)))]
