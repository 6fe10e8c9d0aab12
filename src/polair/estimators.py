"""Data-aided channel estimation from pilot blocks.

Two estimators are provided:

* least squares (LS): ``H = X D^dagger (D D^dagger)^-1``, the unconstrained
  minimizer of ||X - H D||_F^2, with 2 n^2 real degrees of freedom;
* Kabsch: ``H = U V^dagger`` from the SVD of ``X D^dagger``, the minimizer
  of the same cost over the unitary group, with n^2 degrees of freedom.

Both are exposed as plain functions (vectorized over stacked pilot blocks)
and as small fit/predict estimator classes for pipeline-style use.

:data:`ESTIMATORS` is the one registry of estimator kinds,
``{kind: (X, pilots, H) -> H_hat}``; besides ``ls`` and ``kabsch`` it holds
the perfect-CSI stub ``perfect``, which returns the true channel H. The
kinds in :data:`UNITARY_KINDS` give unitary estimates. Everything that
dispatches on a kind (the classes, the error covariance, the Monte Carlo
rates in :mod:`polair.air`) reads the registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, PilotMatrix, make_pilots
from .linalg import (
    SingularMatrixError,
    as_complex_matrix,
    dagger,
    fro_norm,
    haar_unitary,
    sample_cgauss,
)

__all__ = [
    "ESTIMATORS",
    "ESTIMATOR_KINDS",
    "UNITARY_KINDS",
    "get_estimator",
    "EstimatorSpec",
    "ErrorStats",
    "estimate_ls",
    "estimate_kabsch",
    "empirical_error_covariance",
    "error_stats_to_json",
    "LeastSquaresEstimator",
    "KabschEstimator",
    "make_estimator",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator family tag with its real degrees of freedom."""

    kind: str

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")

    def dof(self, n: int) -> int:
        """Independent real values the estimator must find."""
        return n * n if self.kind in UNITARY_KINDS else 2 * n * n


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
    """Empirical error covariance R_E = E[E^dagger E] and derived scalars."""

    kind: str
    R_E: np.ndarray = field(repr=False)
    trials: int
    dof: int

    def __post_init__(self):
        R = as_complex_matrix(self.R_E, "R_E")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if fro_norm(R - dagger(R)) > 1e-10 * max(1.0, fro_norm(R)):
            raise ValueError("R_E is not Hermitian to tolerance")
        if np.min(np.linalg.eigvalsh(0.5 * (R + dagger(R)))) < -1e-10:
            raise ValueError("R_E is not positive semidefinite to tolerance")

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
    deterministic trial order.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    specs = [EstimatorSpec(kind) for kind in kinds]
    n = params.n
    pilots = make_pilots(n, L, params.power)
    acc = {spec.kind: np.zeros((n, n), dtype=complex) for spec in specs}
    done = 0
    while done < trials:
        b = min(_TRIAL_CHUNK, trials - done)
        H = haar_unitary(n, rng, size=b)
        X = H @ pilots.D + sample_cgauss((b, n, L), params.sigma2, rng)
        for kind in acc:
            E = H - ESTIMATORS[kind](X, pilots, H)
            acc[kind] += np.einsum("bij,bik->jk", np.conj(E), E)
        done += b
    out = {}
    for spec in specs:
        R = acc[spec.kind] / trials
        R = 0.5 * (R + dagger(R))  # symmetrize away accumulation round-off
        out[spec.kind] = ErrorStats(kind=spec.kind, R_E=R, trials=trials, dof=spec.dof(n))
    return out


def error_stats_to_json(stats: ErrorStats, params: ChannelParams, L: int) -> str:
    """Serialize an ErrorStats record to the JSON wire format."""
    record = {
        "estimator": stats.kind,
        "n": stats.n,
        "L": L,
        "eta_db": 10.0 * np.log10(params.eta),
        "trials": stats.trials,
        "trace_RE": stats.trace_re,
        "E2": stats.error_per_dof,
    }
    return json.dumps(record)


class _BaseChannelEstimator:
    """Minimal fit/predict estimator API over the functional core."""

    kind = ""

    def get_params(self, deep: bool = True) -> dict:
        return {}

    def set_params(self, **params) -> "_BaseChannelEstimator":
        for key in params:
            raise ValueError(f"unknown parameter {key!r} for {type(self).__name__}")
        return self

    def fit(self, X, pilots: PilotMatrix) -> "_BaseChannelEstimator":
        """Estimate the channel from a received pilot block X (n x L)."""
        X = as_complex_matrix(X, "X")
        self.channel_ = self._estimate(X, pilots)
        return self

    def predict(self, S) -> np.ndarray:
        """Noiseless channel response H_hat @ S of the fitted estimate."""
        if not hasattr(self, "channel_"):
            raise RuntimeError("estimator is not fitted; call fit(X, pilots) first")
        S = np.asarray(S, dtype=complex)
        return self.channel_ @ S

    def _estimate(self, X, pilots):
        return ESTIMATORS[self.kind](X, pilots, None)


class LeastSquaresEstimator(_BaseChannelEstimator):
    """Unconstrained least-squares channel estimator."""

    kind = "ls"


class KabschEstimator(_BaseChannelEstimator):
    """Unitary-constrained (Procrustes/Kabsch) channel estimator."""

    kind = "kabsch"


def make_estimator(kind: str) -> _BaseChannelEstimator:
    """A fresh estimator object of a pilot-based kind."""
    for cls in (LeastSquaresEstimator, KabschEstimator):
        if cls.kind == kind:
            return cls()
    raise ValueError(f"unknown estimator kind {kind!r}")
