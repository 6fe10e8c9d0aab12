"""Data-aided channel estimation from pilot blocks.

Two estimators are provided:

* least squares (LS): ``H = X D^dagger (D D^dagger)^-1``, the unconstrained
  minimizer of ||X - H D||_F^2, with 2 n^2 real degrees of freedom;
* Kabsch: ``H = U V^dagger`` from the SVD of ``X D^dagger``, the minimizer
  of the same cost over the unitary group, with n^2 degrees of freedom.

Both are plain functions, :func:`estimate_ls` and :func:`estimate_kabsch`,
vectorized over stacked pilot blocks.

:data:`ESTIMATORS` is the one registry of estimator kinds,
``{kind: (X, pilots, H) -> H_hat}``; besides ``ls`` and ``kabsch`` it holds
the perfect-CSI stub ``perfect``, which returns the true channel H. The
kinds in :data:`UNITARY_KINDS` give unitary estimates and have n^2 real
degrees of freedom; the others have 2 n^2. Everything that dispatches on a
kind (the error covariance here, the Monte Carlo rates in
:mod:`polair.air`) reads the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, PilotMatrix, make_pilots
from .linalg import SingularMatrixError, check_hermitian_psd, dagger, fro_norm, haar_unitary, sample_cgauss

__all__ = [
    "ESTIMATORS",
    "ESTIMATOR_KINDS",
    "UNITARY_KINDS",
    "get_estimator",
    "ErrorStats",
    "estimate_ls",
    "estimate_kabsch",
    "empirical_error_covariance",
]


def _pilot_arrays(pilots: PilotMatrix) -> tuple[np.ndarray, np.ndarray]:
    D = pilots.D
    gram = D @ dagger(D)
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] < 1e-13 * max(fro_norm(gram), np.finfo(float).tiny):
        raise SingularMatrixError("pilot Gram matrix D D^dagger is singular")
    return D, np.linalg.inv(gram)


def estimate_ls(X, pilots: PilotMatrix) -> np.ndarray:
    """Least-squares channel estimate from received pilots.

    ``X`` may be a single n x L block or a stack (..., n, L); the estimate
    has matching leading dimensions.
    """
    X = np.asarray(X, dtype=complex)
    D, gram_inv = _pilot_arrays(pilots)
    if X.shape[-1] != D.shape[1] or X.shape[-2] != D.shape[0]:
        raise ValueError(f"X trailing dims must be {D.shape}, got {X.shape}")
    return X @ dagger(D) @ gram_inv


def estimate_kabsch(X, pilots: PilotMatrix) -> np.ndarray:
    """Unitary (orthogonal Procrustes) channel estimate from received pilots.

    Returns U V^dagger from the SVD of X D^dagger. The output is unitary for
    every input; on a rank-deficient X D^dagger the decomposition's unitary
    factors still define a valid minimizer on the degenerate subspace.
    """
    X = np.asarray(X, dtype=complex)
    D = pilots.D
    if X.shape[-1] != D.shape[1] or X.shape[-2] != D.shape[0]:
        raise ValueError(f"X trailing dims must be {D.shape}, got {X.shape}")
    U, _, Vh = np.linalg.svd(X @ dagger(D))
    return U @ Vh


# The entries look estimate_ls and estimate_kabsch up as module globals at
# call time, so a wrapped or patched module attribute is what gets called.
ESTIMATORS = {
    "ls": lambda X, pilots, H: estimate_ls(X, pilots),
    "kabsch": lambda X, pilots, H: estimate_kabsch(X, pilots),
    "perfect": lambda X, pilots, H: H,
}
UNITARY_KINDS = frozenset({"kabsch", "perfect"})  # these decode with energy ||s||^2
ESTIMATOR_KINDS = tuple(k for k in ESTIMATORS if k != "perfect")  # the pilot-based kinds


def get_estimator(kind: str):
    """The registry entry of ``kind``; an unknown kind raises ``ValueError``."""
    if kind not in ESTIMATORS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return ESTIMATORS[kind]


@dataclass(frozen=True)
class ErrorStats:
    """Empirical error covariance R_E = E[E^dagger E] and derived scalars.

    ``dof`` is the estimator's number of real degrees of freedom;
    ``trace_stderr`` is the standard error of tr(R_E) as the mean of the
    per-trial ||E_t||_F^2.
    """

    kind: str
    R_E: np.ndarray = field(repr=False)
    trials: int
    dof: int
    trace_stderr: float

    def __post_init__(self):
        check_hermitian_psd(self.R_E, "R_E")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def n(self) -> int:
        return self.R_E.shape[0]

    @property
    def trace_re(self) -> float:
        return float(np.trace(self.R_E).real)

    @property
    def error_per_dof(self) -> float:
        """Per-DOF error trace(R_E) / (n * dof)."""
        return self.trace_re / (self.n * self.dof)


_TRIAL_CHUNK = 4096


def empirical_error_covariance(
    kinds: tuple[str, ...],
    params: ChannelParams,
    L: int,
    trials: int,
    rng: np.random.Generator,
) -> dict[str, ErrorStats]:
    """Average E^dagger E over independent (channel, noise) draws, per estimator kind.

    Each trial draws a fresh Haar channel and a fresh pilot-noise
    realization; every requested kind (``"ls"``, ``"kabsch"``) estimates the
    channel from the same draws and accumulates its error Gram matrix in
    deterministic trial order. The per-trial ||E_t||_F^2, whose mean is
    tr(R_E), give each kind's ``trace_stderr``.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    estimators = {kind: get_estimator(kind) for kind in kinds}
    if "perfect" in estimators:
        raise ValueError("'perfect' is not a pilot-based estimator kind")
    n = params.n
    pilots = make_pilots(n, L, params.power)
    acc = {kind: np.zeros((n, n), dtype=complex) for kind in estimators}
    sq_norms = {kind: np.empty(trials) for kind in estimators}
    done = 0
    while done < trials:
        b = min(_TRIAL_CHUNK, trials - done)
        H = haar_unitary(n, rng, size=b)
        X = H @ pilots.D + sample_cgauss((b, n, L), params.sigma2, rng)
        for kind, estimate in estimators.items():
            E = H - estimate(X, pilots, H)
            acc[kind] += np.einsum("bij,bik->jk", np.conj(E), E)
            sq_norms[kind][done : done + b] = np.sum(np.abs(E) ** 2, axis=(1, 2))
        done += b
    out = {}
    for kind in estimators:
        R = acc[kind] / trials
        R = 0.5 * (R + dagger(R))  # symmetrize away accumulation round-off
        out[kind] = ErrorStats(
            kind=kind,
            R_E=R,
            trials=trials,
            dof=n * n if kind in UNITARY_KINDS else 2 * n * n,
            trace_stderr=float(sq_norms[kind].std(ddof=1) / np.sqrt(trials)),
        )
    return out
