"""Real-vector variant: parameters <A, mu, Sigma, w> with Gaussian emissions.

Assignment and decoding use only the state means (nearest mu in L2);
covariances enter in evaluation, where the emission term is the multivariate
normal log-density, computed through a Cholesky factorization. The shared
pipeline is in `model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import model as core
from .errors import InputError, NumericError
from .lattice import SymbolLattice

RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class RealModel(core.LatticeModel):
    mu: np.ndarray = field(repr=False)     # N x M state means
    sigma: np.ndarray = field(repr=False)  # N x M x M covariances

    kind, exact_alphabet = "real", True

    @property
    def rows(self) -> np.ndarray:
        return self.mu

    def _check_emission(self):
        if self.mu.shape != (self.N, self.M):
            raise InputError("mu must be N x M")
        if self.sigma.shape != (self.N, self.M, self.M):
            raise InputError("sigma must be N x M x M")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise InputError("mu and sigma must be finite")
        if np.abs(self.sigma - self.sigma.transpose(0, 2, 1)).max() > 0:
            raise InputError("covariances must be symmetric")

    @staticmethod
    def _rows_from_codebook(centroids: np.ndarray) -> np.ndarray:
        return centroids

    @staticmethod
    def _fit(mu, lattices, states) -> dict:
        """Sigma(j): covariance of the raw-observation residuals of state j
        about mu(j), plus a trace-scaled ridge."""
        N, M = mu.shape
        scatter = np.zeros((N, M, M))
        statecount = np.zeros(N)
        for lat, q in zip(lattices, states):
            qf = q.ravel()
            o = lat.values.reshape(-1, M)
            for j in range(N):
                resid = o[qf == j] - mu[j]
                scatter[j] += resid.T @ resid
                statecount[j] += len(resid)
        sigma = np.empty_like(scatter)
        for j in range(N):
            S = scatter[j] / statecount[j]
            S = 0.5 * (S + S.T)  # force exact symmetry against accumulation noise
            ridge = max(RIDGE_FLOOR, RIDGE_SCALE * np.trace(S) / M)
            sigma[j] = S + ridge * np.eye(M)
        return {"mu": mu, "sigma": sigma}

    def _log_emission(self, obs: SymbolLattice, q: np.ndarray) -> float:
        q = q.ravel()
        o = obs.values.reshape(-1, self.M)
        total = 0.0
        for j in range(self.N):
            mask = q == j
            if mask.any():
                total += float(gaussian_log_density(o[mask], self.mu[j], self.sigma[j], state=j).sum())
        return total


def gaussian_log_density(x: np.ndarray, mean: np.ndarray, cov: np.ndarray, state=None) -> np.ndarray:
    """Multivariate normal log-density of rows of x, via Cholesky."""
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericError(f"covariance of state {state} is not positive definite", state=state)
    diff = np.atleast_2d(x) - mean
    sol = solve_triangular(L, diff.T, lower=True)
    quad = (sol ** 2).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    return -0.5 * (len(mean) * _LOG_2PI + logdet + quad)


def assign_real(model: RealModel, x) -> int:
    """State whose mean is L2-closest to x; ties go to lowest index."""
    return core.assign(model, x)


def decode_real(model: RealModel, obs: SymbolLattice):
    """Sample-mean signature field and nearest-mean states, window radius w."""
    return core.decode(model, obs, model.w)


def evaluate_real(model: RealModel, obs: SymbolLattice) -> float:
    """Log-score: decode with w_e, then Gaussian emission + neighbor terms."""
    return core.evaluate(model, obs)


def learn_real(obs, w_l: int, n_states: int, *, w=None, w_e=None, alpha=1.0) -> RealModel:
    """Learn <A, mu, Sigma>: PNN-quantized window means give mu, states come
    from nearest-mean re-assignment, A from neighbor-pair counts, and Sigma(j)
    from raw-observation residuals plus a trace-scaled ridge."""
    return core.learn(RealModel, obs, w_l, n_states, w=w, w_e=w_e, alpha=alpha)
