"""Block-constant unitary MIMO-AWGN channel model.

The channel is an n x n Haar-random unitary matrix, constant within a
transmission block and independent across blocks. Each block starts with L
pilot symbols known to both ends; the remaining symbols carry data drawn
from a constellation (or a circular Gaussian codebook).

Power convention: the noise has unit variance per complex dimension, so the
per-channel SNR eta is the power of each symbol component and of each
pilot entry; it must be finite and > 0. A constellation is a scale-free
alphabet: :func:`~polair.air.air_discrete_paired_mc` scales it to eta.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_positive

__all__ = [
    "CONSTELLATION_KINDS",
    "Constellation",
    "make_constellation",
    "make_pilots",
]

CONSTELLATION_KINDS = ("dp_qpsk", "dp_16qam")


@dataclass(frozen=True)
class Constellation:
    """A uniform discrete input: the full product of a real PAM alphabet over 2n real dimensions.

    ``pam_levels`` is the sorted real alphabet, not all zero, at any scale
    whose squares neither overflow nor underflow: a rate scales it to its
    SNR. ``points`` is the (M, n) complex array of all M = side^(2n)
    symbols, built once at construction; the real dimensions are Re and Im
    of each component, in the order of ``points.view(float)``. A circular Gaussian input has no constellation:
    the rates handle it in closed form.
    """

    n: int
    pam_levels: np.ndarray
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        levels = np.asarray(self.pam_levels, dtype=float)
        # isfinite first: the difference of two infinities warns. An empty or all-zero alphabet has no power.
        if levels.ndim != 1 or not levels.any() or not np.isfinite(levels).all() or not (np.diff(levels) > 0).all():
            raise ValueError(f"pam_levels must be a finite, strictly increasing 1-D array, not all zero, got {self.pam_levels!r}")
        object.__setattr__(self, "pam_levels", levels)
        object.__setattr__(self, "points", np.array(list(itertools.product(levels, repeat=2 * self.n))).view(complex))

    @property
    def size(self) -> int:
        return self.points.shape[0]


def make_constellation(kind: str, n: int) -> Constellation:
    """Build a scale-free constellation: the raw PAM levels [-1, 1] or [-3, -1, 1, 3].

    dp_qpsk and dp_16qam are the products of PAM-2 and PAM-4 levels over
    the real dimensions of n = 2 polarizations: each polarization is a
    square QAM. :func:`~polair.air.air_discrete_paired_mc` scales it to its
    per-channel SNR.
    """
    check_constellation_args(kind, n)
    side = 2 if kind == "dp_qpsk" else 4
    return Constellation(n, np.arange(-(side - 1), side, 2, dtype=float))


def check_constellation_args(kind: str, n: int) -> None:
    """Raise ``ValueError`` unless ``make_constellation`` admits ``kind`` at dimension ``n``; builds no points."""
    if kind not in CONSTELLATION_KINDS:
        raise ValueError(f"unsupported constellation kind {kind!r}")
    if n != 2:
        raise ValueError(f"{kind} requires n = 2, got n = {n}")


def check_dimension(n: int) -> None:
    """Raise ``ValueError`` unless ``n >= 2``: the channel dimension of pilots, sweeps and ``polair capacity``."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


def check_pilot_args(n: int, L: int) -> None:
    """Raise ``ValueError`` unless ``make_pilots`` admits the dimension ``n`` and pilot length ``L``; builds no pilots."""
    check_dimension(n)
    if L < n:
        raise ValueError(f"L must be >= n, got L={L}, n={n}")
    if L % n != 0:
        raise ValueError(f"L must be a multiple of n, got L={L}, n={n}")


def make_pilots(n: int, L: int, eta: float) -> np.ndarray:
    """Deterministic n x L pilot matrix D at per-channel SNR ``eta``, with the orthogonality property.

    Block-repeats a scaled n x n Hadamard matrix with QPSK entries
    (+-1 +- 1j)/sqrt(2) * sqrt(eta), whose rows are orthogonal, so
    D D^dagger = c I_n with c = eta L, the scale the estimators take. For n
    not a power of two a DFT matrix is used instead (unit-modulus but not
    QPSK entries).

    Requires L >= n and L a multiple of n.
    """
    check_pilot_args(n, L)
    check_positive("eta", eta)
    if n & (n - 1) == 0:
        base = np.array([[1.0]])
        while base.shape[0] < n:
            base = np.block([[base, base], [base, -base]])
        base = base * (1.0 + 1j) / np.sqrt(2.0)
    else:
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        base = np.exp(2j * np.pi * j * k / n)
    return np.tile(base * np.sqrt(eta), (1, L // n))
