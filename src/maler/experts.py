"""Expert algorithms driven by the broadcast (play, gradient) pair.

Each expert runs its own first-order method on its own surrogate sequence:

  constant-rate:  x_{t+1} = P_D(x_t^c - (D / (G sqrt(t))) g_t)
                  (gradient descent on c_t; the eta_c factors cancel)
  spherical:      x_{t+1} = P_D(x_t^e - grad s_t(x_t^e) / (2 eta^2 G^2 t))
                  (gradient descent on the 2 eta^2 G^2 strongly convex s_t)
  quadratic:      x_{t+1} = P_D^{Sigma}(x_t^e - Sigma^{-1} grad l_t(x_t^e) / beta)
                  (online Newton step on the exp-concave l_t)

The quadratic expert's matrix inverse is maintained by rank-one updates and
re-factorized periodically to stop drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import surrogates
from .core import DecisionSet, ProblemParams, Quadratic
from .meta import (
    KIND_CONST,
    KIND_QUADRATIC,
    KIND_SPHERICAL,
    CertificateReport,
    CertificateRow,
    ExpertGrid,
    RunTrace,
)
from .surrogates import SurrogateContext

ONS_GRAD_SCALE = 7.0 / 25.0
REFACTOR_EVERY = 512


def ons_grad_bound(D: float) -> float:
    """Norm cap 7/(25 D) on the quadratic surrogate's gradient."""
    return ONS_GRAD_SCALE / D


def ons_beta(D: float) -> float:
    """Newton-step parameter beta = min(1/(4 G_l D), 1) / 2."""
    return 0.5 * min(1.0 / (4.0 * ons_grad_bound(D) * D), 1.0)


@dataclass(frozen=True)
class ConvexExpertState:
    """Constant-rate gradient-descent expert."""

    iterate: np.ndarray
    round: int
    eta: float
    dset: DecisionSet
    G: float
    D: float


@dataclass(frozen=True)
class SphericalExpertState:
    """Gradient-descent expert on the spherical surrogate."""

    iterate: np.ndarray
    round: int
    eta: float
    dset: DecisionSet
    G: float


@dataclass(frozen=True)
class NewtonExpertState:
    """Online-Newton expert on the quadratic surrogate."""

    iterate: np.ndarray
    round: int
    eta: float
    dset: DecisionSet
    beta: float
    sigma: np.ndarray
    sigma_inv: np.ndarray
    updates: int


def init_convex_expert(dset: DecisionSet, params: ProblemParams, eta_c: float) -> ConvexExpertState:
    return ConvexExpertState(
        iterate=np.zeros(params.dim),
        round=1,
        eta=eta_c,
        dset=dset,
        G=params.grad_bound,
        D=params.diameter,
    )


def init_spherical_expert(dset: DecisionSet, params: ProblemParams, eta: float) -> SphericalExpertState:
    return SphericalExpertState(
        iterate=np.zeros(params.dim),
        round=1,
        eta=eta,
        dset=dset,
        G=params.grad_bound,
    )


def init_newton_expert(dset: DecisionSet, params: ProblemParams, eta: float) -> NewtonExpertState:
    beta = ons_beta(params.diameter)
    scale = 1.0 / (beta**2 * params.diameter**2)
    return NewtonExpertState(
        iterate=np.zeros(params.dim),
        round=1,
        eta=eta,
        dset=dset,
        beta=beta,
        sigma=scale * np.eye(params.dim),
        sigma_inv=(1.0 / scale) * np.eye(params.dim),
        updates=0,
    )


def sherman_morrison_update(A_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse of (A + v v^T) given A_inv, via the rank-one identity."""
    Av = A_inv @ v
    return A_inv - np.outer(Av, Av) / (1.0 + float(v @ Av))


def convex_expert_step(state: ConvexExpertState, ctx: SurrogateContext) -> ConvexExpertState:
    """Descend the padded linear surrogate with rate D/(eta G sqrt(t))."""
    if ctx.eta != state.eta:
        raise ValueError("context rate does not match this expert's rate")
    g = surrogates.c_grad(ctx, state.iterate)
    step = state.D / (state.eta * state.G * math.sqrt(state.round))
    nxt = state.dset.project(state.iterate - step * g)
    return replace(state, iterate=nxt, round=state.round + 1)


def spherical_expert_step(state: SphericalExpertState, ctx: SurrogateContext) -> SphericalExpertState:
    """Descend the spherical surrogate with rate 1/(2 eta^2 G^2 t)."""
    if ctx.eta != state.eta:
        raise ValueError("context rate does not match this expert's rate")
    g = surrogates.s_grad(ctx, state.iterate)
    step = 1.0 / (2.0 * state.eta**2 * state.G**2 * state.round)
    nxt = state.dset.project(state.iterate - step * g)
    return replace(state, iterate=nxt, round=state.round + 1)


def newton_expert_step(state: NewtonExpertState, ctx: SurrogateContext) -> NewtonExpertState:
    """Newton-step on the quadratic surrogate under the running metric."""
    if ctx.eta != state.eta:
        raise ValueError("context rate does not match this expert's rate")
    g = surrogates.ell_grad(ctx, state.iterate)
    cap = ons_grad_bound(ctx.D)
    gn = float(np.linalg.norm(g))
    if gn > cap * (1.0 + 1e-9):
        raise ValueError(f"surrogate gradient norm {gn:.6g} exceeds the proved cap {cap:.6g}")
    sigma = state.sigma + np.outer(g, g)
    updates = state.updates + 1
    if updates % REFACTOR_EVERY == 0:
        sigma_inv = np.linalg.inv(sigma)
    else:
        sigma_inv = sherman_morrison_update(state.sigma_inv, g)
    target = state.iterate - (1.0 / state.beta) * (sigma_inv @ g)
    nxt = state.dset.project_weighted(sigma, target)
    return replace(
        state,
        iterate=nxt,
        round=state.round + 1,
        sigma=sigma,
        sigma_inv=sigma_inv,
        updates=updates,
    )


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


def expert_regret_certificate(trace: RunTrace, grid: Optional[ExpertGrid] = None) -> CertificateReport:
    """Check each expert's regret on its own surrogate sum against its fixed per-expert cap.

    The comparator is the constrained minimizer of the summed surrogate,
    realizing the worst u in the bound's quantifier.
    """
    from .meta import recompute_surrogate_losses

    if grid is None:
        grid = trace.grid
    if grid is None or trace.expert_points is None:
        raise ValueError("trace does not carry expert data")
    params = trace.params
    T, d = trace.plays.shape
    own = recompute_surrogate_losses(trace).sum(axis=0)
    rows = []
    for e, kind in enumerate(grid.kinds):
        obj = summed_surrogate(
            kind, trace.plays, trace.grads, float(grid.tilts[e]), params.grad_bound, params.diameter
        )
        best = obj.value(obj.minimize(trace.dset))
        if kind == KIND_CONST:
            bound = expert_regret_c_bound()
        elif kind == KIND_SPHERICAL:
            bound = expert_regret_s_bound(T)
        else:
            bound = expert_regret_ell_bound(T, d)
        rows.append(
            CertificateRow(
                label=f"expert-regret {grid.labels[e]}",
                measured=float(own[e]) - best,
                bound=bound,
            )
        )
    return CertificateReport(name="expert-regret", rows=rows)
