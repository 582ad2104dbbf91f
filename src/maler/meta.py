"""Expert grid construction and the tilted exponential-weights meta layer.

The meta algorithm maintains one weight per expert and plays the
tilt-weighted average of the expert predictions,

    x_t = sum_e pi_t^e eta_e x_t^e / sum_e pi_t^e eta_e,

then updates pi multiplicatively with each expert's own surrogate loss
evaluated at its own prediction. Weights live in log space as one array,
which is the meta layer's whole state; the learner keeps it, and with it
the running log-potential log Phi_t = sum_tau log Z_tau, a monotonicity
diagnostic (Phi never increases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import surrogates
from .core import Ball, ProblemParams
from .surrogates import KIND_CONST, KIND_QUADRATIC, KIND_SPHERICAL


def logsumexp(v: np.ndarray) -> float:
    """log(sum(exp(v))) with max-shift; -inf entries are allowed."""
    m = float(v.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(v - m).sum()))


def grid_depth(horizon: int) -> int:
    """Number of halvings k = ceil(0.5 * log2 T)."""
    return max(0, math.ceil(0.5 * math.log2(horizon)))


def meta_regret_bound(horizon: int) -> float:
    """Meta-regret bound for spherical/quadratic experts: 2 ln(sqrt(3)(log2(T)/2 + 3))."""
    return 2.0 * math.log(math.sqrt(3.0) * (0.5 * math.log2(horizon) + 3.0))


def meta_regret_c_bound() -> float:
    """Meta-regret bound for the constant-rate expert: ln 3."""
    return math.log(3.0)


@dataclass(frozen=True)
class ExpertGrid:
    """Immutable roster of experts: kind, tilt (its learning rate), log prior and label."""

    style: str
    kinds: tuple
    tilts: np.ndarray
    log_priors: np.ndarray
    labels: tuple

    @property
    def size(self) -> int:
        return len(self.kinds)


def build_grid(params: ProblemParams, style: str = "maler") -> ExpertGrid:
    """Expert grid over the rates eta_i = 2^{-i} / (5 D G), i = 0..k, k = ceil(log2(T)/2).

    style "maler": one constant-rate expert with eta_c = 1/(2 G D sqrt(T)) and
    prior 1/3, plus a spherical and a quadratic expert per rate, each with
    prior C/(3 (i+1)(i+2)), C = 1 + 1/(1+k).
    style "metagrad": the baseline's quadratic experts only, with priors
    C/((i+1)(i+2)). Raises ValueError for T < 2.
    """
    T, G, D = params.horizon, params.grad_bound, params.diameter
    if T < 2:
        raise ValueError(f"horizon T={T} is too short: the expert-regret bound 10 d ln T "
                         "is 0 at T=1, so an expert grid needs T >= 2")
    k = grid_depth(T)
    etas = np.array([2.0**-i * params.top_rate for i in range(k + 1)])
    eta_c = 1.0 / (2.0 * G * D * math.sqrt(T))
    C = 1.0 + 1.0 / (1.0 + k)
    ell_labels = [f"ell[{i}]" for i in range(k + 1)]
    if style == "maler":
        share = [C / (3.0 * (i + 1) * (i + 2)) for i in range(k + 1)]
        kinds = [KIND_CONST] + [KIND_SPHERICAL] * (k + 1) + [KIND_QUADRATIC] * (k + 1)
        tilts = np.concatenate([[eta_c], etas, etas])
        priors = np.concatenate([[1.0 / 3.0], share, share])
        labels = ["c"] + [f"s[{i}]" for i in range(k + 1)] + ell_labels
    elif style == "metagrad":
        kinds = [KIND_QUADRATIC] * (k + 1)
        tilts = etas.copy()
        priors = np.array([C / ((i + 1) * (i + 2)) for i in range(k + 1)])
        labels = ell_labels
    else:
        raise ValueError(f"unknown grid style {style!r}")
    total = float(np.sum(priors))
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"expert priors sum to {total!r}, not 1")
    return ExpertGrid(
        style=style,
        kinds=tuple(kinds),
        tilts=tilts,
        log_priors=np.log(priors),
        labels=tuple(labels),
    )


def aggregate_play(log_weights: np.ndarray, grid: ExpertGrid, points: np.ndarray) -> np.ndarray:
    """Tilt-weighted average of expert points under the given log weights, with a max shift."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] != grid.size:
        raise ValueError(f"expected {grid.size} expert points, got {pts.shape[0]}")
    m = float(log_weights.max())
    w = np.exp(log_weights - m) * grid.tilts
    den = float(w.sum())
    return (w @ pts) / den


def update_weights(log_weights: np.ndarray, grid: ExpertGrid, losses: np.ndarray) -> tuple:
    """Multiplicative update pi <- pi exp(-loss) / Z, in log space.

    Returns (new normalized log weights, log Z); the caller adds log Z to
    its running log-potential.
    """
    lv = np.asarray(losses, dtype=float)
    if lv.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} losses, got shape {lv.shape}")
    if not np.all(np.isfinite(lv)):
        raise ValueError("surrogate losses must be finite")
    shifted = log_weights - lv
    z = logsumexp(shifted)
    return shifted - z, z


@dataclass(slots=True)
class RunTrace:
    """Complete per-round record of one learner run on one gradient stream. Slotted:
    assigning a field it does not have, such as a modulus (params holds those), raises."""

    algo: str
    params: ProblemParams
    dset: Ball
    plays: np.ndarray
    grads: np.ndarray
    grid: Optional[ExpertGrid] = None
    expert_points: Optional[np.ndarray] = None
    surrogate_losses: Optional[np.ndarray] = None
    log_weights: Optional[np.ndarray] = None
    log_phi: Optional[np.ndarray] = None
    loss_at_play: Optional[np.ndarray] = None
    loss_at_comparator: Optional[np.ndarray] = None
    comparator: Optional[np.ndarray] = None

    @property
    def rounds(self) -> int:
        return self.plays.shape[0]


def recompute_surrogate_losses(trace: RunTrace) -> np.ndarray:
    """Re-evaluate every expert's surrogate loss at its own point, for all rounds at once.

    A recorded expert point far outside the ball gives an inf or NaN loss,
    without a warning, and so fails its certificate rows.
    """
    grid, p = trace.grid, trace.params
    constants = surrogates.expert_constants(grid.kinds, grid.tilts, p.grad_bound, p.diameter)
    with np.errstate(over="ignore", invalid="ignore"):
        return surrogates.expert_values(grid.tilts, constants, trace.expert_points,
                                        trace.plays, trace.grads)


@dataclass
class CertificateRow:
    """One certified inequality: measured quantity vs its proved bound."""

    label: str
    measured: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound

    @property
    def slack(self) -> float:
        return self.bound - self.measured


@dataclass
class CertificateReport:
    """A batch of certificate rows with an all-pass flag."""

    name: str
    rows: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def worst(self) -> CertificateRow:
        """The row of least slack, a violated one first: a NaN slack compares as no less."""
        return min(self.rows, key=lambda r: (r.ok, r.slack))


def meta_regret_certificate(trace: RunTrace) -> CertificateReport:
    """Check each expert's meta regret against its exponential-weights bound.

    Meta regret of expert e is sum_t f~(x_t) - sum_t f~(x_t^e) where f~ is
    e's surrogate. At x = x_t the spherical and quadratic surrogates vanish
    and the constant-pad surrogate equals (eta_c G D)^2, so the first term
    is recomputed directly; the second is re-evaluated from the trace.
    The measured side sums the played rounds; the cap of a spherical or
    quadratic expert takes T to be the problem's horizon. Grid and losses
    both come from the trace.
    """
    grid = trace.grid
    if grid is None or trace.expert_points is None:
        raise ValueError("trace does not carry expert data")
    if grid.style != "maler":
        raise ValueError(f"meta-regret bounds are stated for the full grid, not {grid.style!r}")
    T = trace.rounds
    G, D = trace.params.grad_bound, trace.params.diameter
    own = recompute_surrogate_losses(trace).sum(axis=0)
    pad = surrogates.expert_constants(grid.kinds, grid.tilts, G, D)[0]
    bound_sl = meta_regret_bound(trace.params.horizon)
    rows = [
        CertificateRow(
            label=f"meta-regret {grid.labels[e]}",
            measured=T * pad[e] - float(own[e]),
            bound=meta_regret_c_bound() if kind == KIND_CONST else bound_sl,
        )
        for e, kind in enumerate(grid.kinds)
    ]
    return CertificateReport(name="meta-regret", rows=rows)


# Rounding allowance of the potential certificate: log Phi may rise by this much.
POTENTIAL_SLACK = 1e-9


def potential_certificate(trace: RunTrace) -> CertificateReport:
    """Check that log Phi_t never increases and never exceeds 0, up to POTENTIAL_SLACK."""
    if trace.log_phi is None:
        raise ValueError("trace does not carry the potential diagnostic")
    phi = np.concatenate([[0.0], np.asarray(trace.log_phi, dtype=float)])
    rows = [
        CertificateRow(
            label=f"log-potential step t={t}",
            measured=float(phi[t] - phi[t - 1]),
            bound=POTENTIAL_SLACK,
        )
        for t in range(1, phi.shape[0])
    ]
    rows.append(CertificateRow(label="log-potential final", measured=float(phi[-1]),
                               bound=POTENTIAL_SLACK))
    return CertificateReport(name="potential", rows=rows)
