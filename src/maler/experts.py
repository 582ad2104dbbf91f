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
and their targets come from one stacked matvec; the update also carries a
floor on each Sigma's lambda_min that proves Sigma SPD with no factorization.
Each row, and ONSLearner, then takes its newton_expert_step, one weighted
projection of its Sigma, passed as a core.ProvedSPD (no check) where proved:
a stacked boundary solve was measured slower at these sizes.

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

from . import core, surrogates
from .core import KINDS, Ball, ProblemParams, Quadratic, newton_metric, ons_grad_bound, rowdot
from .meta import (
    CertificateReport,
    CertificateRow,
    ExpertGrid,
    RunTrace,
    recompute_surrogate_losses,
)

REFACTOR_EVERY = 512
# From this d up, a bank's 6 outer products are faster from einsum than by a
# broadcast multiply (measured crossover d = 22; d = 45 for one row). The choice
# depends on d alone, so a stack and each of its slices take one path.
EINSUM_MIN_DIM = 24


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


def newton_metric_update(sigma: np.ndarray, sigma_inv: np.ndarray, floor, trace, updates: int,
                         G: np.ndarray) -> tuple:
    """(Sigma + g g^T, its inverse, floor, trace) for every row g of G at once; sigma is
    (..., d, d), floor and trace (...). updates counts the rank-one updates already in
    sigma; every REFACTOR_EVERY-th update re-inverts densely instead.

    For d <= 2^50, floor f <= lambda_min(Sigma) and trace tau >= tr Sigma while f >= 2^-969
    (f never rises). With u = 2^-53 and eta = 2^-1074, a product errs by u relative and by
    eta/2 if it underflows, a sum by u relative; so for Sigma symmetric with f > 0:
      - s = fl(sum_i fl(g_i^2)), summed in any order, has ||g||^2 <= (1 + 2du) s + d eta.
      - Sigma' = fl(Sigma + fl(g g^T)) is exactly symmetric (g_i g_j = g_j g_i); its error E
        has ||E||_2 <= ||E||_F <= u (2 + u) ||g||^2 + u ||Sigma||_F + d eta <= 3us + 5u tau/4,
        as ||Sigma||_F <= tr Sigma <= tau and d eta <= u tau/4; by Weyl's inequality
        lambda_min(Sigma') >= f - ||E||_2.
      - w = fl(4s + tau) >= (1 - u)(4s + tau) and delta = fl(4u w) is exact, so delta -
        ||E||_2 >= 2u tau >= u f covers fl(f - delta) rounding up; f - delta < 0 gives f' <= 0.
      - tr Sigma' <= (1 + u)(tau + (1 + u)||g||^2 + d eta) <= (1 + 3u/2) tau + 2s, below
        tau' = fl(w (1 + 4u)) >= (1 + 2u - 8u^2)(4s + tau). A finite tau' bounds every
        |Sigma'_ij|, so none overflowed; an infinite or NaN tau or f stays so.
    """
    sigma_next = _outer(G)
    sigma_next += sigma
    w = 4.0 * np.add.reduce(G * G, axis=-1) + trace
    floor, trace = floor - (4.0 * core._U) * w, (1.0 + 4.0 * core._U) * w
    if (updates + 1) % REFACTOR_EVERY == 0:
        return sigma_next, np.linalg.inv(sigma_next), floor, trace
    return sigma_next, sherman_morrison_update(sigma_inv, G), floor, trace


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


def newton_expert_step(sigma, target: np.ndarray, dset: Ball) -> np.ndarray:
    """Project the Newton target x - Sigma^{-1} g / beta in the updated Sigma's norm."""
    return dset.project_weighted(sigma, target)


@dataclass(frozen=True)
class BankLayout:
    """What no round of a bank changes, fixed by ExpertBank.build.

    grid holds the rates (tilts) and surrogate constants; rows holds the c, s
    and ell row indices, rates their etas, and first the c then the s rows,
    the stack they are projected as; sph is eta^2 G^2 of each s row and
    ell_slope 2 eta^2 of each ell row.
    """

    grid: ExpertGrid
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
    quadratic row, with floor and trace (L,) the bounds newton_metric_update
    carries; round is the t of the next step.
    """

    layout: BankLayout
    points: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray
    floor: np.ndarray
    trace: np.ndarray
    round: int = 1

    @classmethod
    def build(cls, grid: ExpertGrid, params: ProblemParams, dset: Ball) -> "ExpertBank":
        """Bank at round 1 of the grid's experts, every iterate at the origin; the grid's
        rates (its tilts) must lie in (0, 2/(3DG)]."""
        G, D = params.grad_bound, params.diameter
        etas = grid.tilts
        cap = surrogates.eta_cap(G, D)
        if not np.all((etas > 0.0) & (etas <= cap * (1.0 + 1e-12))):
            raise ValueError(f"rates {etas} outside (0, 2/(3DG)] = (0, {cap}]")
        kinds = np.asarray(grid.kinds)
        conv, sph, ell = rows = tuple(np.flatnonzero(kinds == kind) for kind in KINDS)
        sigma, sigma_inv, floor, trace = newton_metric(params.bank_beta, D, params.dim)
        layout = BankLayout(
            grid=grid, rows=rows, rates=tuple(etas[r] for r in rows),
            first=np.concatenate((conv, sph)), sph=grid.constants[1, sph],
            # 2 eta^2 in Python floats, as ell_grad computes it
            ell_slope=np.array([2.0 * float(eta) ** 2 for eta in etas[ell]]),
            beta=params.bank_beta, params=params, dset=dset)
        return cls(layout, np.zeros((kinds.size, params.dim)),
                   np.repeat(sigma[None], ell.size, axis=0),
                   np.repeat(sigma_inv[None], ell.size, axis=0),
                   np.full(ell.size, floor), np.full(ell.size, trace))

    def losses(self, play: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Each expert's surrogate loss at its own iterate this round."""
        grid = self.layout.grid
        return surrogates.expert_values(grid.tilts, grid.constants, self.points, play, grad)

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
        sigma, sigma_inv, floor, trace = newton_metric_update(
            self.sigma, self.sigma_inv, self.floor, self.trace, t - 1, ell_grads)
        targets = X_ell - (1.0 / lay.beta) * (sigma_inv @ ell_grads[..., None])[..., 0]
        proved = core.proves_spd(floor, trace, lay.params.dim).tolist()
        for j, e in enumerate(ell):
            H = core.ProvedSPD(sigma[j]) if proved[j] else sigma[j]
            nxt[e] = newton_expert_step(H, targets[j], lay.dset)
        return ExpertBank(lay, nxt, sigma, sigma_inv, floor, trace, t + 1)


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
    (pad, sph, quad) of its grid's constants. The sums over rounds
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
    (SurrogateSums.of), not once per expert. Each cap is the kind's expert
    cap of core.regret_caps with T the played rounds. Grid, its constants
    and losses all come from the trace.
    """
    own = recompute_surrogate_losses(trace).sum(axis=0)
    grid = trace.grid
    caps = core.regret_caps(*trace.plays.shape)
    sums = SurrogateSums.of(trace.plays, trace.grads)
    rows = []
    for e, kind in enumerate(grid.kinds):
        obj = summed_surrogate(float(grid.tilts[e]), *grid.constants[:, e], sums)
        rows.append(CertificateRow(label=f"expert-regret {grid.labels[e]}",
                                   measured=float(own[e]) - obj.value(obj.minimize(trace.dset)),
                                   bound=caps[kind][1]))
    return CertificateReport(name="expert-regret", rows=rows)
