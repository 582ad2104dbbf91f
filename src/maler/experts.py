"""The expert bank: every expert of one grid, stepped on the broadcast (play, gradient) pair.

Each expert runs its own first-order method on its own surrogate sequence:

  constant-rate:  x_{t+1} = P_D(x_t^c - (D / (G sqrt(t))) g_t)
                  (gradient descent on c_t; the eta_c factors cancel)
  spherical:      x_{t+1} = P_D(x_t^e - grad s_t(x_t^e) / (2 eta^2 G^2 t))
                  (gradient descent on the 2 eta^2 G^2 strongly convex s_t)
  quadratic:      x_{t+1} = P_D^{Sigma}(x_t^e - Sigma^{-1} grad l_t(x_t^e) / beta)
                  (online Newton step on the exp-concave l_t)

ExpertBank holds them all as arrays. The constant-rate and spherical rows
take their descent points in one batched expression per family, and are
projected as one stack; a family the grid holds no row of (a metagrad grid
holds only quadratic rows) is not stepped. The Newton rows' Sigma and
Sigma^{-1} are updated together by one newton_metric_update per round
(rank-one updates of Sigma^{-1}, re-factorized periodically to stop drift),
and their targets come from one stacked matvec. Each row, and ONSLearner,
then takes its newton_expert_step, one weighted projection: a stacked
boundary solve was measured slower at these sizes.

The metric update works in the buffers of its two outer products, with one
multiply, add, divide and subtract per entry. From d = EINSUM_MIN_DIM up it
takes its products from einsum, which adds each to +0.0, so an exactly zero
product is +0.0 where a broadcast multiply can give -0.0. Sigma never holds
-0.0, so only a -0.0 that a refactor's inv put into Sigma^{-1} can change sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# From this d up, a bank's 6 outer products are faster from einsum than by a
# broadcast multiply (measured crossover d = 22; d = 45 for one row). The choice
# depends on d alone, so a stack and each of its slices take one path.
EINSUM_MIN_DIM = 24


def ons_grad_bound(D: float) -> float:
    """Norm cap 7/(25 D) on the quadratic surrogate's gradient."""
    return ONS_GRAD_SCALE / D


def newton_beta(G: float, D: float, alpha: float) -> float:
    """Online Newton step parameter beta = min(alpha, 1/(4 G D)) / 2 for alpha-exp-concave
    losses with gradients bounded by G on a set of diameter D (Hazan, Agarwal & Kale, 2007)."""
    return 0.5 * min(alpha, 1.0 / (4.0 * (G * D)))


def newton_metric(beta: float, D: float, dim: int) -> tuple:
    """Initial (Sigma, Sigma^{-1}) of an online Newton step: Sigma = I / (beta D)^2.

    Raises ValueError if (beta D)^2 underflows to 0 or its inverse overflows.
    """
    squared = beta**2 * D**2
    scale = 1.0 / squared if squared > 0.0 else math.inf
    if scale == math.inf:
        raise ValueError(f"the online Newton metric I/(beta D)^2 overflows at beta = {beta:g}, "
                         f"D = {D:g}")
    return scale * np.eye(dim), (1.0 / scale) * np.eye(dim)


def _outer(v: np.ndarray) -> np.ndarray:
    """v v^T for every row of the (..., d) stack v, in a new (..., d, d) array."""
    if v.shape[-1] < EINSUM_MIN_DIM:
        return v[..., :, None] * v[..., None, :]
    return np.einsum("...i,...j->...ij", v, v)


def sherman_morrison_update(A_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse of (A + v v^T) given A_inv, via the rank-one identity.

    A_inv is (..., d, d) and v is (..., d); a stack goes through the same
    float operations per slice as each slice alone. The division and the
    subtraction are done in the outer product's buffer.
    """
    Av = (A_inv @ v[..., None])[..., 0]
    out = _outer(Av)
    out /= (1.0 + rowdot(v, Av))[..., None, None]
    return np.subtract(A_inv, out, out=out)


def newton_metric_update(sigma: np.ndarray, sigma_inv: np.ndarray, updates: int,
                         G: np.ndarray) -> tuple:
    """(Sigma + g g^T, its inverse) for every row g of G at once; sigma is (..., d, d).

    updates counts the rank-one updates already in sigma; every
    REFACTOR_EVERY-th update re-inverts densely instead.
    """
    sigma_next = _outer(G)
    sigma_next += sigma
    if (updates + 1) % REFACTOR_EVERY == 0:
        return sigma_next, np.linalg.inv(sigma_next)
    return sigma_next, sherman_morrison_update(sigma_inv, G)


def convex_expert_step(points: np.ndarray, etas: np.ndarray, t: int, grad: np.ndarray,
                       G: float, D: float) -> np.ndarray:
    """Descent points on the padded linear surrogates at round t, rates D/(eta G sqrt(t))."""
    step = D / (etas * G * math.sqrt(t))
    return points - step[:, None] * (etas[:, None] * grad)


def spherical_expert_step(points: np.ndarray, etas: np.ndarray, sph: np.ndarray, t: int,
                          play: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Descent points on the spherical surrogates at round t, rates 1/(2 sph t), sph = eta^2 G^2."""
    g = etas[:, None] * grad + (2.0 * sph)[:, None] * (points - play)
    return points - (1.0 / (2.0 * sph * t))[:, None] * g


def newton_expert_step(sigma: np.ndarray, target: np.ndarray, dset: Ball) -> np.ndarray:
    """Project the Newton target x - Sigma^{-1} g / beta in the updated Sigma's norm."""
    return dset.project_weighted(sigma, target)


@dataclass(frozen=True)
class BankLayout:
    """What no round of a bank changes, fixed by ExpertBank.build.

    rows holds the c, s and ell row indices, rates their etas, and first the
    c then the s rows, the stack they are projected as; sph is eta^2 G^2 of
    each s row and ell_slope 2 eta^2 of each ell row.
    """

    etas: np.ndarray
    constants: np.ndarray
    rows: tuple
    rates: tuple
    first: np.ndarray
    sph: np.ndarray
    ell_slope: np.ndarray
    beta: float
    params: ProblemParams
    dset: Ball


@dataclass(frozen=True)
class ExpertBank:
    """All experts of one grid as arrays; step returns the next bank.

    points is E x d and sigma, sigma_inv are L x d x d, one slice per
    quadratic row; round is the t of the next step.
    """

    layout: BankLayout
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
        conv, sph, ell = rows = tuple(np.flatnonzero(kinds == kind)
                                      for kind in (KIND_CONST, KIND_SPHERICAL, KIND_QUADRATIC))
        constants = surrogates.expert_constants(kinds, etas, G, D)
        beta = newton_beta(ons_grad_bound(D), D, 1.0)
        sigma, sigma_inv = newton_metric(beta, D, params.dim)
        layout = BankLayout(
            etas=etas, constants=constants, rows=rows, rates=tuple(etas[r] for r in rows),
            first=np.concatenate((conv, sph)), sph=constants[1, sph],
            # 2 eta^2 in Python floats, as ell_grad computes it
            ell_slope=np.array([2.0 * float(eta) ** 2 for eta in etas[ell]]),
            beta=beta, params=params, dset=dset)
        return cls(layout, np.zeros((kinds.size, params.dim)),
                   np.repeat(sigma[None], ell.size, axis=0),
                   np.repeat(sigma_inv[None], ell.size, axis=0))

    def losses(self, play: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Each expert's surrogate loss at its own iterate this round."""
        lay = self.layout
        return surrogates.expert_values(lay.etas, lay.constants, self.points, play, grad)

    def step(self, play: np.ndarray, grad: np.ndarray) -> "ExpertBank":
        """The bank after one round; raises if a Newton row's gradient is past its cap."""
        lay, t, X = self.layout, self.round, self.points
        (conv, sph, ell), (c_etas, s_etas, ell_etas) = lay.rows, lay.rates
        G, D = lay.params.grad_bound, lay.params.diameter
        # grad l_t(x) = (eta + 2 eta^2 (x - x_t)^T g_t) g_t, as surrogates.ell_grad.
        X_ell = X[ell]
        ell_grads = (ell_etas + lay.ell_slope * rowdot(X_ell - play, grad))[:, None] * grad
        cap = ons_grad_bound(D)
        norms = np.sqrt(np.add.reduce(ell_grads * ell_grads, axis=1))  # as np.linalg.norm
        if (norms > cap * (1.0 + 1e-9)).any():
            raise ValueError(f"surrogate gradient norm {norms.max():.6g} exceeds the proved "
                             f"cap {cap:.6g}")
        nxt = np.empty_like(X)
        if lay.first.size:
            descent = []
            if conv.size:
                descent.append(convex_expert_step(X[conv], c_etas, t, grad, G, D))
            if sph.size:
                descent.append(spherical_expert_step(X[sph], s_etas, lay.sph, t, play, grad))
            nxt[lay.first] = lay.dset.project(np.concatenate(descent))
        sigma, sigma_inv = newton_metric_update(self.sigma, self.sigma_inv, t - 1, ell_grads)
        targets = X_ell - (1.0 / lay.beta) * (sigma_inv @ ell_grads[..., None])[..., 0]
        for j, e in enumerate(ell):
            nxt[e] = newton_expert_step(sigma[j], targets[j], lay.dset)
        return ExpertBank(lay, nxt, sigma, sigma_inv, t + 1)


def expert_regret_s_bound(horizon: int) -> float:
    """Surrogate regret bound for the spherical expert: 1 + ln T."""
    return 1.0 + math.log(horizon)


def expert_regret_ell_bound(horizon: int, dim: int) -> float:
    """Surrogate regret bound for the quadratic expert: 10 d ln T."""
    return 10.0 * dim * math.log(horizon)


def expert_regret_c_bound() -> float:
    """Surrogate regret bound for the constant-rate expert: 3/4."""
    return 0.75


@dataclass(frozen=True)
class SurrogateSums:
    """The time-sums over one trace that every expert's summed surrogate is built from.

    With ip_t = x_t^T g_t: sum_g = sum_t g_t, sum_xg = sum_t ip_t, sum_x =
    sum_t x_t, sum_xx = sum_t ||x_t||^2, sum_ipg = sum_t ip_t g_t, sum_ipip =
    sum_t ip_t^2 and sum_gg = sum_t g_t g_t^T.
    """

    rounds: int
    sum_g: np.ndarray
    sum_xg: float
    sum_x: np.ndarray
    sum_xx: float
    sum_ipg: np.ndarray
    sum_ipip: float
    sum_gg: np.ndarray

    @classmethod
    def of(cls, plays: np.ndarray, grads: np.ndarray) -> "SurrogateSums":
        """The sums of a T x d history of plays and gradients."""
        xg = np.einsum("td,td->t", plays, grads)
        return cls(rounds=plays.shape[0], sum_g=grads.sum(axis=0), sum_xg=float(xg.sum()),
                   sum_x=plays.sum(axis=0), sum_xx=float(np.einsum("td,td->", plays, plays)),
                   sum_ipg=xg @ grads, sum_ipip=float(xg @ xg),
                   sum_gg=np.einsum("ti,tj->ij", grads, grads))


def summed_surrogate(eta: float, pad: float, sph: float, quad: float,
                     sums: SurrogateSums) -> Quadratic:
    """One expert's surrogate summed over rounds, as a quadratic in u.

    The time-sum of surrogates.expert_values' eta ip + pad + sph ||u - x_t||^2
    + quad (eta ip)^2, ip = (u - x_t)^T g_t, for the expert's column
    (pad, sph, quad) of surrogates.expert_constants. The sums over rounds
    are taken once per trace, in sums, and shared by every expert; each
    expert only scales them. A zero constant adds no term: iso = T sph, and
    M = quad eta^2 sum_t g_t g_t^T is None if quad is 0.
    """
    q, r, M = eta * sums.sum_g, -eta * sums.sum_xg, None
    if pad:
        r = r + sums.rounds * pad
    if sph:
        q = q - 2.0 * sph * sums.sum_x
        r = r + sph * sums.sum_xx
    if quad:
        w = quad * eta**2
        q = q - 2.0 * w * sums.sum_ipg
        r = r + w * sums.sum_ipip
        M = w * sums.sum_gg
    return Quadratic(q=q, r=r, iso=sph * sums.rounds, M=M)


def expert_regret_certificate(trace: RunTrace) -> CertificateReport:
    """Check each expert's regret on its own surrogate sum against its fixed per-expert cap.

    The comparator is the constrained minimizer of the summed surrogate,
    realizing the worst u in the bound's quantifier. The sums over rounds
    behind every expert's surrogate sum are taken once per trace
    (SurrogateSums.of), not once per expert. The caps 1 + ln T and 10 d ln T
    take T to be the played rounds. Grid and losses both come from the trace.
    """
    grid = trace.grid
    if grid is None or trace.expert_points is None:
        raise ValueError("trace does not carry expert data")
    p = trace.params
    T, d = trace.plays.shape
    own = recompute_surrogate_losses(trace).sum(axis=0)
    constants = surrogates.expert_constants(grid.kinds, grid.tilts, p.grad_bound, p.diameter)
    bounds = {KIND_CONST: expert_regret_c_bound(), KIND_SPHERICAL: expert_regret_s_bound(T),
              KIND_QUADRATIC: expert_regret_ell_bound(T, d)}
    sums = SurrogateSums.of(trace.plays, trace.grads)
    rows = []
    for e, kind in enumerate(grid.kinds):
        obj = summed_surrogate(float(grid.tilts[e]), *constants[:, e], sums)
        rows.append(CertificateRow(label=f"expert-regret {grid.labels[e]}",
                                   measured=float(own[e]) - obj.value(obj.minimize(trace.dset)),
                                   bound=bounds[kind]))
    return CertificateReport(name="expert-regret", rows=rows)
