"""Block-constant unitary MIMO-AWGN channel model.

The channel is an n x n Haar-random unitary matrix, constant within a
transmission block and independent across blocks. Each block starts with L
pilot symbols known to both ends; the remaining symbols carry data drawn
from a constellation (or a circular Gaussian codebook).

Power convention: the noise variance per complex dimension is sigma2, the
total symbol power is P, and the per-channel SNR is eta = P / (n * sigma2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CONSTELLATION_KINDS",
    "ChannelParams",
    "Constellation",
    "make_constellation",
    "make_pilots",
]

CONSTELLATION_KINDS = ("gaussian", "dp_qpsk", "dp_16qam")


@dataclass(frozen=True)
class ChannelParams:
    """Channel dimension and power bookkeeping.

    eta = power / (n * sigma2) is the per-channel SNR (linear).
    """

    n: int
    power: float
    sigma2: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not (0 < self.power < np.inf):
            raise ValueError(f"power must be finite and > 0, got {self.power}")
        if not (0 < self.sigma2 < np.inf):
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")

    @property
    def eta(self) -> float:
        return self.power / (self.n * self.sigma2)

    @classmethod
    def from_eta_db(cls, n: int, eta_db: float) -> "ChannelParams":
        """Build params from SNR in dB with unit noise variance (P = n * eta)."""
        return cls(n=n, power=n * 10.0 ** (eta_db / 10.0), sigma2=1.0)


@dataclass(frozen=True)
class Constellation:
    """A finite set of n-dimensional symbols with uniform prior.

    ``points`` has shape (M, n); it is empty (shape (0, n)) for the
    ``gaussian`` kind, which tags a circular Gaussian codebook handled by
    closed-form rate expressions instead of symbol-wise sums.
    """

    kind: str
    n: int
    power: float
    points: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def is_discrete(self) -> bool:
        return self.points.shape[0] > 0

    @property
    def pam_levels(self) -> np.ndarray | None:
        """The sorted real alphabet when the points are its full product over the 2n real dimensions, else None.

        The real dimensions are Re and Im of each component, in the order of
        ``points.view(float)``. DP-QPSK and DP-16-QAM are the products of
        PAM-2 and PAM-4 levels; ``gaussian`` and any other set give None.
        """
        if not self.is_discrete:
            return None
        # Python sets, not np.unique, whose first call imports numpy.ma (1.2 MB of peak RSS).
        coords = np.ascontiguousarray(self.points, dtype=complex).view(float).tolist()  # M rows of 2n
        levels = sorted({value for row in coords for value in row})
        # M distinct points, each of whose 2n coordinates is a level, are the full product when M = side^(2n).
        if self.size != len(levels) ** len(coords[0]) or len(set(map(tuple, coords))) != self.size:
            return None
        return np.array(levels)


def _qam_levels(order_per_dim: int) -> np.ndarray:
    # Gray-ordered PAM levels: 2 -> [-1, 1], 4 -> [-3, -1, 1, 3].
    m = order_per_dim
    return np.arange(-(m - 1), m, 2, dtype=float)


def _square_qam(order: int) -> np.ndarray:
    """Unnormalized square QAM points for one polarization (complex scalars)."""
    side = int(round(np.sqrt(order)))
    if side * side != order:
        raise ValueError(f"order {order} is not a square")
    levels = _qam_levels(side)
    re, im = np.meshgrid(levels, levels, indexing="ij")
    return (re + 1j * im).ravel()


def make_constellation(kind: str, n: int, power: float) -> Constellation:
    """Build a constellation of total symbol power ``power``.

    dp_qpsk and dp_16qam are product constellations over n = 2
    polarizations with per-polarization power ``power / n``.
    """
    if kind not in CONSTELLATION_KINDS:
        raise ValueError(f"unsupported constellation kind {kind!r}")
    if power <= 0:
        raise ValueError(f"power must be > 0, got {power}")
    if kind == "gaussian":
        return Constellation(kind=kind, n=n, power=power, points=np.zeros((0, n), dtype=complex))
    if n != 2:
        raise ValueError(f"{kind} requires n = 2, got n = {n}")
    per_pol = _square_qam(4 if kind == "dp_qpsk" else 16)
    # Normalize each polarization to power / n on average.
    per_pol = per_pol * np.sqrt((power / n) / np.mean(np.abs(per_pol) ** 2))
    points = np.array(list(itertools.product(per_pol, repeat=n)), dtype=complex)
    return Constellation(kind=kind, n=n, power=power, points=points)


def check_pilot_args(n: int, L: int, power: float) -> None:
    """Raise ``ValueError`` unless ``make_pilots(n, L, power)`` admits its arguments; builds no pilots."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if L < n:
        raise ValueError(f"L must be >= n, got L={L}, n={n}")
    if L % n != 0:
        raise ValueError(f"L must be a multiple of n, got L={L}, n={n}")
    if power <= 0:
        raise ValueError(f"power must be > 0, got {power}")


def make_pilots(n: int, L: int, power: float) -> np.ndarray:
    """Deterministic n x L pilot matrix D with the orthogonality property.

    Block-repeats a scaled n x n Hadamard matrix with QPSK entries
    (+-1 +- 1j)/sqrt(2) * sqrt(P/n), which guarantees
    D D^dagger = (P L / n) I_n exactly. For n not a power of two a DFT
    matrix is used instead (unit-modulus but not QPSK entries).

    Requires L >= n and L a multiple of n.
    """
    check_pilot_args(n, L, power)
    if n & (n - 1) == 0:
        base = np.array([[1.0]])
        while base.shape[0] < n:
            base = np.block([[base, base], [base, -base]])
        base = base * (1.0 + 1j) / np.sqrt(2.0)
    else:
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        base = np.exp(2j * np.pi * j * k / n)
    base = base * np.sqrt(power / n)
    return np.tile(base, (1, L // n))
