"""The expert bank: every expert of one grid, stepped on the broadcast (play, gradient) pair.

Each expert runs its own first-order method on its own surrogate sequence:

  constant-rate:  x_{t+1} = P_D(x_t^c - (D / (G sqrt(t))) g_t)
                  (gradient descent on c_t; the eta_c factors cancel)
  spherical:      x_{t+1} = P_D(x_t^e - grad s_t(x_t^e) / (2 eta^2 G^2 t))
                  (gradient descent on the 2 eta^2 G^2 strongly convex s_t)
  quadratic:      x_{t+1} = P_D^{Sigma}(x_t^e - Sigma^{-1} grad l_t(x_t^e) / beta)
                  (online Newton step on the exp-concave l_t)

ExpertBank holds them all as arrays. The constant-rate and spherical rows
step in one batched expression per round, each family projected as one
stack. The Newton rows' Sigma and Sigma^{-1} are updated together by one
newton_metric_update per round (rank-one updates of Sigma^{-1}, re-factorized
periodically to stop drift); then each row, and ONSLearner, takes its
newton_expert_step with its own weighted projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import surrogates
from .core import Ball, ProblemParams, Quadratic, rowdot
from .meta import (
    KIND_CONST,
    KIND_QUADRATIC,
    KIND_SPHERICAL,
    CertificateReport,
    CertificateRow,
    RunTrace,
    recompute_surrogate_losses,
)

ONS_GRAD_SCALE = 7.0 / 25.0
REFACTOR_EVERY = 512


def ons_grad_bound(D: float) -> float:
    """Norm cap 7/(25 D) on the quadratic surrogate's gradient."""
    return ONS_GRAD_SCALE / D


def ons_beta(D: float) -> float:
    """Newton-step parameter beta = min(1/(4 G_l D), 1) / 2."""
    return 0.5 * min(1.0 / (4.0 * ons_grad_bound(D) * D), 1.0)


def newton_metric(beta: float, D: float, dim: int) -> tuple:
    """Initial (Sigma, Sigma^{-1}) of an online Newton step: Sigma = I / (beta D)^2."""
    scale = 1.0 / (beta**2 * D**2)
    return scale * np.eye(dim), (1.0 / scale) * np.eye(dim)


def sherman_morrison_update(A_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse of (A + v v^T) given A_inv, via the rank-one identity.

    A_inv is (..., d, d) and v is (..., d); a stack goes through the same
    float operations per slice as each slice alone.
    """
    Av = (A_inv @ v[..., None])[..., 0]
    return A_inv - Av[..., :, None] * Av[..., None, :] / (1.0 + rowdot(v, Av))[..., None, None]


def newton_metric_update(sigma: np.ndarray, sigma_inv: np.ndarray, updates: int,
                         G: np.ndarray) -> tuple:
    """(Sigma + g g^T, its inverse) for every row g of G at once; sigma is (..., d, d).

    updates counts the rank-one updates already in sigma; every
    REFACTOR_EVERY-th update re-inverts densely instead.
    """
    sigma = sigma + G[..., :, None] * G[..., None, :]
    if (updates + 1) % REFACTOR_EVERY == 0:
        return sigma, np.linalg.inv(sigma)
    return sigma, sherman_morrison_update(sigma_inv, G)


def convex_expert_step(points: np.ndarray, etas: np.ndarray, t: int, grad: np.ndarray,
                       G: float, D: float, dset: Ball) -> np.ndarray:
    """Descend the padded linear surrogates at round t with rates D/(eta G sqrt(t))."""
    step = D / (etas * G * math.sqrt(t))
    return dset.project(points - step[:, None] * (etas[:, None] * grad))


def spherical_expert_step(points: np.ndarray, etas: np.ndarray, sph: np.ndarray, t: int,
                          play: np.ndarray, grad: np.ndarray, dset: Ball) -> np.ndarray:
    """Descend the spherical surrogates at round t with rates 1/(2 sph t), sph = eta^2 G^2."""
    g = etas[:, None] * grad + (2.0 * sph)[:, None] * (points - play)
    return dset.project(points - (1.0 / (2.0 * sph * t))[:, None] * g)


def newton_expert_step(x: np.ndarray, sigma: np.ndarray, sigma_inv: np.ndarray, g: np.ndarray,
                       beta: float, dset: Ball) -> np.ndarray:
    """One online Newton step on gradient g, given the already updated Sigma and Sigma^{-1}."""
    return dset.project_weighted(sigma, x - (1.0 / beta) * (sigma_inv @ g))


@dataclass(frozen=True)
class ExpertBank:
    """All experts of one grid as arrays; step returns the next bank.

    points is E x d and sigma, sigma_inv are L x d x d, one slice per
    quadratic row; rows holds the c, s and ell row indices, and round the t
    of the next step.
    """

    etas: np.ndarray
    constants: np.ndarray
    rows: tuple
    ell_slope: np.ndarray
    beta: float
    params: ProblemParams
    dset: Ball
    points: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray
    round: int = 1

    @classmethod
    def build(cls, kinds, etas, params: ProblemParams, dset: Ball) -> "ExpertBank":
        """Bank at round 1: every iterate at the origin; rates must lie in (0, 2/(3DG)]."""
        G, D = params.grad_bound, params.diameter
        etas = np.asarray(etas, dtype=float)
        cap = surrogates.eta_cap(G, D)
        if not np.all((etas > 0.0) & (etas <= cap * (1.0 + 1e-12))):
            raise ValueError(f"rates {etas} outside (0, 2/(3DG)] = (0, {cap}]")
        kinds = np.asarray(kinds)
        rows = tuple(np.flatnonzero(kinds == kind)
                     for kind in (KIND_CONST, KIND_SPHERICAL, KIND_QUADRATIC))
        beta = ons_beta(D)
        sigma, sigma_inv = newton_metric(beta, D, params.dim)
        return cls(
            etas=etas,
            constants=surrogates.expert_constants(kinds, etas, G, D),
            rows=rows,
            # 2 eta^2 in Python floats, as ell_grad computes it
            ell_slope=np.array([2.0 * float(eta) ** 2 for eta in etas[rows[2]]]),
            beta=beta,
            params=params,
            dset=dset,
            points=np.zeros((kinds.size, params.dim)),
            sigma=np.repeat(sigma[None], rows[2].size, axis=0),
            sigma_inv=np.repeat(sigma_inv[None], rows[2].size, axis=0),
        )

    def losses(self, play: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Each expert's surrogate loss at its own iterate this round."""
        return surrogates.expert_values(self.etas, self.constants, self.points, play, grad)

    def step(self, play: np.ndarray, grad: np.ndarray) -> "ExpertBank":
        """The bank after one round; raises if a Newton row's gradient is past its cap."""
        conv, sph, ell = self.rows
        G, D, t, X = self.params.grad_bound, self.params.diameter, self.round, self.points
        # grad l_t(x) = (eta + 2 eta^2 (x - x_t)^T g_t) g_t, as surrogates.ell_grad.
        ip = rowdot(X[ell] - play, grad)
        ell_grads = (self.etas[ell] + self.ell_slope * ip)[:, None] * grad
        cap = ons_grad_bound(D)
        norms = np.linalg.norm(ell_grads, axis=1)
        if np.any(norms > cap * (1.0 + 1e-9)):
            raise ValueError(f"surrogate gradient norm {norms.max():.6g} exceeds the proved "
                             f"cap {cap:.6g}")
        nxt = np.empty_like(X)
        nxt[conv] = convex_expert_step(X[conv], self.etas[conv], t, grad, G, D, self.dset)
        nxt[sph] = spherical_expert_step(X[sph], self.etas[sph], self.constants[1, sph], t,
                                         play, grad, self.dset)
        sigma, sigma_inv = newton_metric_update(self.sigma, self.sigma_inv, t - 1, ell_grads)
        for j, e in enumerate(ell):
            nxt[e] = newton_expert_step(X[e], sigma[j], sigma_inv[j], ell_grads[j], self.beta,
                                        self.dset)
        return replace(self, points=nxt, sigma=sigma, sigma_inv=sigma_inv, round=t + 1)


def expert_regret_s_bound(horizon: int) -> float:
    """Surrogate regret bound for the spherical expert: 1 + ln T."""
    return 1.0 + math.log(horizon)


def expert_regret_ell_bound(horizon: int, dim: int) -> float:
    """Surrogate regret bound for the quadratic expert: 10 d ln T."""
    return 10.0 * dim * math.log(horizon)


def expert_regret_c_bound() -> float:
    """Surrogate regret bound for the constant-rate expert: 3/4."""
    return 0.75


def summed_surrogate(kind: str, plays: np.ndarray, grads: np.ndarray, eta: float,
                     G: float, D: float) -> Quadratic:
    """One expert's surrogate summed over rounds, as a quadratic in u.

    M is zero for the constant-pad surrogate, iso is zero except for the
    spherical one, and M = sum_t eta^2 g_t g_t^T for the quadratic one.
    """
    rounds = plays.shape[0]
    xg = np.einsum("td,td->t", plays, grads)
    sum_g = grads.sum(axis=0)
    if kind == KIND_CONST:
        return Quadratic(q=eta * sum_g, r=-eta * float(xg.sum()) + rounds * (eta * G * D) ** 2)
    if kind == KIND_SPHERICAL:
        return Quadratic(
            q=eta * sum_g - 2.0 * eta**2 * G**2 * plays.sum(axis=0),
            r=-eta * float(xg.sum()) + eta**2 * G**2 * float(np.einsum("td,td->", plays, plays)),
            iso=eta**2 * G**2 * rounds,
        )
    if kind == KIND_QUADRATIC:
        return Quadratic(
            q=eta * sum_g - 2.0 * eta**2 * (xg @ grads),
            r=-eta * float(xg.sum()) + eta**2 * float(xg @ xg),
            M=eta**2 * np.einsum("ti,tj->ij", grads, grads),
        )
    raise ValueError(f"unknown surrogate kind {kind!r}")


def expert_regret_certificate(trace: RunTrace) -> CertificateReport:
    """Check each expert's regret on its own surrogate sum against its fixed per-expert cap.

    The comparator is the constrained minimizer of the summed surrogate,
    realizing the worst u in the bound's quantifier. Grid and losses both
    come from the trace.
    """
    grid = trace.grid
    if grid is None or trace.expert_points is None:
        raise ValueError("trace does not carry expert data")
    p = trace.params
    T, d = trace.plays.shape
    own = recompute_surrogate_losses(trace).sum(axis=0)
    bounds = {KIND_CONST: expert_regret_c_bound(), KIND_SPHERICAL: expert_regret_s_bound(T),
              KIND_QUADRATIC: expert_regret_ell_bound(T, d)}
    rows = []
    for e, kind in enumerate(grid.kinds):
        obj = summed_surrogate(kind, trace.plays, trace.grads, float(grid.tilts[e]), p.grad_bound,
                               p.diameter)
        rows.append(CertificateRow(label=f"expert-regret {grid.labels[e]}",
                                   measured=float(own[e]) - obj.value(obj.minimize(trace.dset)),
                                   bound=bounds[kind]))
    return CertificateReport(name="expert-regret", rows=rows)
