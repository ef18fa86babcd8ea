"""Real-vector variant: parameters <A, mu, Sigma, w> with Gaussian emissions.

Assignment and decoding use only the state means (nearest mu in L2);
covariances enter in evaluation, where the emission term is the multivariate
normal log-density. Learning and scoring share each state's node count n_j and
residual scatter S_j (`_scatter`): Sigma(j) is S_j / n_j plus a ridge, and the
nodes of state j score -1/2 [n_j (M log 2 pi + log det Sigma(j)) + tr(Sigma(j)^-1 S_j)].
The shared pipeline is in `model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as core, vq
from .errors import InputError, NumericError
from .lattice import SymbolLattice

RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-12


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
        parts = [_scatter(mu, lat.values.reshape(-1, M), q.ravel()) for lat, q in zip(lattices, states)]
        count, scatter = (sum(part) for part in zip(*parts))  # summed in lattice order
        S = scatter / count[:, None, None]
        S = 0.5 * (S + S.transpose(0, 2, 1))  # force exact symmetry against accumulation noise
        ridge = np.maximum(RIDGE_FLOOR, RIDGE_SCALE * np.trace(S, axis1=1, axis2=2) / M)
        sigma = S + ridge[:, None, None] * np.eye(M)
        bad = np.flatnonzero(~np.isfinite(sigma).all(axis=(1, 2)))
        if bad.size:
            raise NumericError(f"covariance of state {bad[0]} overflows", state=int(bad[0]))
        return {"mu": mu, "sigma": sigma}

    def _log_emission(self, obs: SymbolLattice, q: np.ndarray) -> float:
        o = obs.values.reshape(-1, self.M)
        count, S = _scatter(self.mu, o, q.ravel())
        occupied = np.flatnonzero(count)
        try:
            L = np.linalg.cholesky(self.sigma[occupied])
        except np.linalg.LinAlgError:
            for j in occupied:  # name the lowest occupied state that does not factor
                try:
                    np.linalg.cholesky(self.sigma[j])
                except np.linalg.LinAlgError:
                    raise NumericError(f"covariance of state {j} is not positive definite", state=int(j)) from None
            raise
        count, S, Linv = count[occupied], S[occupied], np.linalg.inv(L)
        # a state whose scatter overflows is scattered again on its residuals
        # scaled by 2^-k, and its quadratic term scaled back by 2^2k
        shift = np.zeros(len(occupied), dtype=np.int64)
        for i in np.flatnonzero(~np.isfinite(S).all(axis=(1, 2))):
            rows = o.take(np.flatnonzero(q.ravel() == occupied[i]), axis=0)
            shift[i], S[i] = _scaled_scatter(self.mu[occupied[i]], rows)
        # tr(Sigma^-1 S) = tr(L^-1 S L^-T)
        quad = np.ldexp(((Linv @ S) * Linv).sum(axis=(1, 2)), 2 * shift)
        logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        return float(-0.5 * (count * (self.M * np.log(2 * np.pi) + logdet) + quad).sum())


def _scatter(mu: np.ndarray, o: np.ndarray, q: np.ndarray):
    """Per state j of the N x M `mu`: the count of nodes q assigns to j, and
    the sum over them of the residual outer products (o_t - mu(j))(o_t - mu(j))^T
    (o: U x M observations, q: U states). Each state's rows are taken by
    index, in ascending node order, as a boolean mask would select them."""
    N, M = mu.shape
    count, S = np.zeros(N), np.zeros((N, M, M))
    for j in range(N):
        resid = o.take(np.flatnonzero(q == j), axis=0) - mu[j]
        count[j] = len(resid)
        S[j] = resid.T @ resid
    return count, S


def _scaled_scatter(mu_j: np.ndarray, o: np.ndarray):
    """(k, S'): the scatter of the rows of o about mu_j with both scaled by
    2^-k, k the power of two that keeps every residual product finite; S' is
    the scatter times 2^-2k, exactly short of underflow."""
    k = vq.overflow_shift(mu_j, o)
    resid = np.ldexp(o, -k) - np.ldexp(mu_j, -k)
    return k, resid.T @ resid


def assign_real(model: RealModel, x) -> int:
    """State whose mean is L2-closest to x; ties go to lowest index."""
    return core.assign(model, x)


def decode_real(model: RealModel, obs: SymbolLattice):
    """Sample-mean signature field and nearest-mean states, window radius w."""
    return core.decode(model, obs, model.w)


def evaluate_real(model: RealModel, obs: SymbolLattice, *, signatures=None) -> float:
    """Log-score: decode with w_e, then Gaussian emission + neighbor terms;
    `signatures`, when given, is obs's field at w_e (see `model.evaluate`)."""
    return core.evaluate(model, obs, signatures=signatures)


def learn_real(obs, w_l: int, n_states: int, *, w=None, w_e=None, alpha=1.0) -> RealModel:
    """Learn <A, mu, Sigma>: PNN-quantized window means give mu, states come
    from nearest-mean re-assignment, A from neighbor-pair counts, and Sigma(j)
    from raw-observation residuals plus a trace-scaled ridge."""
    return core.learn(RealModel, obs, w_l, n_states, w=w, w_e=w_e, alpha=alpha)
