"""Learner protocol, the universal tilted-ensemble learner, and baselines.

Every learner speaks the same two-call protocol per round: predict() returns
the point to play, observe(g) feeds back the loss gradient at that point.
predict is pure between observes; observe without a pending prediction, or
twice in a row, is a protocol error, and so is predicting past the horizon T.
Gradients are validated against the declared bound G on arrival, and a
failed observe leaves the learner exactly as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import experts, meta
from .core import Ball, ProblemParams, as_vector
from .meta import CertificateReport, CertificateRow, ExpertGrid, RunTrace


class ProtocolError(RuntimeError):
    """predict/observe called out of order."""


class AssumptionViolation(RuntimeError):
    """Observed data contradicts the declared problem constants."""


class Learner:
    """Base predict/observe learner with gradient validation and tracing."""

    algo = "learner"

    def __init__(self, params: ProblemParams, dset: Ball):
        if dset.dim != params.dim:
            raise ValueError("decision set dimension does not match the problem")
        self.params = params
        self.dset = dset
        self._pending: Optional[np.ndarray] = None
        self._plays: list = []
        self._grads: list = []

    def predict(self) -> np.ndarray:
        if self._pending is None:
            if len(self._plays) >= self.params.horizon:
                raise ProtocolError(f"all T={self.params.horizon} rounds have been played")
            self._pending = np.asarray(self._predict(), dtype=float)
        return self._pending.copy()

    def observe(self, gradient) -> None:
        if self._pending is None:
            raise ProtocolError("observe requires a pending predict")
        g = as_vector(gradient, self.params.dim)
        gn = float(np.linalg.norm(g))
        if not np.all(np.isfinite(g)):
            raise AssumptionViolation("gradient has non-finite entries")
        if gn > self.params.grad_cap:
            raise AssumptionViolation(
                f"gradient norm {gn:.6g} exceeds declared bound G={self.params.grad_bound:.6g}"
            )
        self._observe(self._pending, g)
        self._plays.append(self._pending)
        self._grads.append(g)
        self._pending = None

    def _predict(self) -> np.ndarray:
        raise NotImplementedError

    def _observe(self, play: np.ndarray, grad: np.ndarray) -> None:
        """Advance the learner's state; must change nothing if it raises."""
        raise NotImplementedError

    def trace(self) -> RunTrace:
        d = self.params.dim
        return RunTrace(algo=self.algo, params=self.params, dset=self.dset,
                        plays=np.array(self._plays).reshape(-1, d),
                        grads=np.array(self._grads).reshape(-1, d))


class _TiltedEnsembleLearner(Learner):
    """Shared engine: a grid of experts under tilted exponential weights."""

    def __init__(self, params: ProblemParams, dset: Ball, grid: ExpertGrid):
        super().__init__(params, dset)
        self.grid = grid
        self.state = meta.init_meta_state(grid)
        self.bank = experts.ExpertBank.build(grid.kinds, grid.tilts, params, dset)
        self._expert_points: list = []
        self._losses: list = []
        self._log_weights: list = []
        self._log_phi: list = []

    def _predict(self) -> np.ndarray:
        return meta.aggregate_play(self.state, self.grid, self.bank.points)

    def _observe(self, play: np.ndarray, grad: np.ndarray) -> None:
        losses = self.bank.losses(play, grad)
        state = meta.update_weights(self.state, self.grid, losses)
        bank = self.bank.step(play, grad)
        self._expert_points.append(self.bank.points)
        self.state, self.bank = state, bank
        self._losses.append(losses)
        self._log_weights.append(self.state.log_weights.copy())
        self._log_phi.append(self.state.log_potential)

    def trace(self) -> RunTrace:
        t = super().trace()
        E, d = self.grid.size, self.params.dim
        t.grid = self.grid
        t.expert_points = np.array(self._expert_points).reshape(-1, E, d)
        t.surrogate_losses = np.array(self._losses).reshape(-1, E)
        t.log_weights = np.array(self._log_weights).reshape(-1, E)
        t.log_phi = np.array(self._log_phi)
        return t


class MalerLearner(_TiltedEnsembleLearner):
    """Universal learner: constant-rate, spherical, and quadratic experts."""

    algo = "maler"

    def __init__(self, params: ProblemParams, dset: Ball):
        super().__init__(params, dset, meta.build_grid(params))


def metagrad_baseline(params: ProblemParams, dset: Ball) -> Learner:
    """Baseline ensemble with quadratic-surrogate experts only."""
    learner = _TiltedEnsembleLearner(params, dset, meta.build_grid(params, "metagrad"))
    learner.algo = "metagrad"
    return learner


class OGDLearner(Learner):
    """Projected online gradient descent on the true gradients.

    With no modulus it is "ogd-convex", on the D/(G sqrt(t)) schedule; with a
    strong-convexity modulus lam > 0 it is "ogd-sc", on the 1/(lam t) schedule.
    """

    def __init__(self, params: ProblemParams, dset: Ball, sc_modulus: Optional[float] = None):
        super().__init__(params, dset)
        if sc_modulus is not None and not sc_modulus > 0:
            raise ValueError(f"strong-convexity modulus must be positive, got {sc_modulus}")
        self.sc_modulus = sc_modulus
        self.algo = "ogd-convex" if sc_modulus is None else "ogd-sc"
        self._x = np.zeros(params.dim)

    def _predict(self) -> np.ndarray:
        return self._x

    def _observe(self, play: np.ndarray, grad: np.ndarray) -> None:
        t = len(self._plays) + 1
        if self.sc_modulus is None:
            step = self.params.diameter / (self.params.grad_bound * math.sqrt(t))
        else:
            step = 1.0 / (self.sc_modulus * t)
        self._x = self.dset.project(self._x - step * grad)


class ONSLearner(Learner):
    """Online Newton step on the true gradients of exp-concave losses."""

    algo = "ons"

    def __init__(self, params: ProblemParams, dset: Ball, alpha: float):
        super().__init__(params, dset)
        self.beta = exp_concave_beta(params, alpha)
        self._x = np.zeros(params.dim)
        self._sigma, self._sigma_inv = experts.newton_metric(self.beta, params.diameter, params.dim)

    def _predict(self) -> np.ndarray:
        return self._x

    def _observe(self, play: np.ndarray, grad: np.ndarray) -> None:
        sigma, sigma_inv = experts.newton_metric_update(self._sigma, self._sigma_inv,
                                                        len(self._plays), grad)
        self._x = experts.newton_expert_step(self._x, sigma, sigma_inv, grad, self.beta, self.dset)
        self._sigma, self._sigma_inv = sigma, sigma_inv


def exp_concave_beta(params: ProblemParams, alpha: float) -> float:
    """ONS step parameter beta = min(alpha, 1/(4 G D)) / 2 for alpha-exp-concave losses."""
    if alpha <= 0:
        raise ValueError("exp-concavity modulus must be positive")
    GD = params.grad_bound * params.diameter
    return 0.5 * min(alpha, 1.0 / (4.0 * GD))


def make_learner(name: str, params: ProblemParams, dset: Ball, *,
                 sc_modulus: Optional[float] = None,
                 exp_concavity: Optional[float] = None) -> Learner:
    """Construct a learner by CLI name."""
    if name == "maler":
        return MalerLearner(params, dset)
    if name == "metagrad":
        return metagrad_baseline(params, dset)
    if name == "ogd-convex":
        return OGDLearner(params, dset)
    if name == "ogd-sc":
        if sc_modulus is None:
            raise ValueError("ogd-sc baseline needs the strong-convexity modulus")
        return OGDLearner(params, dset, sc_modulus=sc_modulus)
    if name == "ons":
        if exp_concavity is None:
            raise ValueError("ons baseline needs the exp-concavity modulus")
        return ONSLearner(params, dset, alpha=exp_concavity)
    raise ValueError(f"unknown learner {name!r}")


def play_round(learner: Learner, oracle) -> tuple:
    """Run one protocol round against a loss oracle; returns (x, value, grad)."""
    x = learner.predict()
    val = float(oracle.value(x))
    g = oracle.gradient(x)
    learner.observe(g)
    return x, val, g


def bound_constant_a(horizon: int) -> float:
    """Adaptive-bound constant A: meta-regret cap + 1 + ln T (spherical route)."""
    return meta.meta_regret_bound(horizon) + 1.0 + math.log(horizon)


def bound_constant_b(horizon: int, dim: int) -> float:
    """Adaptive-bound constant B: meta-regret cap + 10 d ln T (quadratic route)."""
    return meta.meta_regret_bound(horizon) + 10.0 * dim * math.log(horizon)


@dataclass
class RegretDiagnostics:
    """Measured regret and the two cumulative deviation totals."""

    regret: float
    v_s: float
    v_ell: float
    cum_regret: np.ndarray
    cum_v_s: np.ndarray
    cum_v_ell: np.ndarray


def regret_diagnostics(trace: RunTrace) -> RegretDiagnostics:
    """Per-round regret and deviation series against the trace's comparator."""
    if trace.comparator is None or trace.loss_at_play is None or trace.loss_at_comparator is None:
        raise ValueError("trace lacks comparator loss data")
    diff = trace.plays - trace.comparator
    G = trace.params.grad_bound
    v_s_steps = G**2 * np.einsum("td,td->t", diff, diff)
    v_ell_steps = np.einsum("td,td->t", diff, trace.grads) ** 2
    reg_steps = np.asarray(trace.loss_at_play) - np.asarray(trace.loss_at_comparator)
    return RegretDiagnostics(
        regret=float(reg_steps.sum()),
        v_s=float(v_s_steps.sum()),
        v_ell=float(v_ell_steps.sum()),
        cum_regret=np.cumsum(reg_steps),
        cum_v_s=np.cumsum(v_s_steps),
        cum_v_ell=np.cumsum(v_ell_steps),
    )


def regret_bound_certificate(trace: RunTrace) -> CertificateReport:
    """Check measured regret against the three simultaneous regret bounds.

    The worst-case bound 2(1+ln3) G D sqrt(T) and the two adaptive bounds
    3 sqrt(V B) + 10 G D B must all hold at once, with V the spherical or
    quadratic cumulative deviation and B the matching constant.
    """
    diag = regret_diagnostics(trace)
    p = trace.params
    T, d = trace.plays.shape
    GD = p.grad_bound * p.diameter
    a = bound_constant_a(T)
    b = bound_constant_b(T, d)
    rows = [
        CertificateRow(
            label="regret <= 2(1+ln3) G D sqrt(T)",
            measured=diag.regret,
            bound=2.0 * (1.0 + math.log(3.0)) * GD * math.sqrt(T),
        ),
        CertificateRow(
            label="regret <= 3 sqrt(V_ell B) + 10 G D B",
            measured=diag.regret,
            bound=3.0 * math.sqrt(diag.v_ell * b) + 10.0 * GD * b,
        ),
        CertificateRow(
            label="regret <= 3 sqrt(V_s A) + 10 G D A",
            measured=diag.regret,
            bound=3.0 * math.sqrt(diag.v_s * a) + 10.0 * GD * a,
        ),
    ]
    return CertificateReport(name="regret-bounds", rows=rows)


def strongly_convex_regret_bound(params: ProblemParams, lam: float) -> float:
    """Regret bound (10 G D + 9 G^2 / (2 lam)) A for lam-strongly-convex losses."""
    if lam <= 0:
        raise ValueError("modulus must be positive")
    p = params
    return (10.0 * p.grad_bound * p.diameter + 9.0 * p.grad_bound**2 / (2.0 * lam)) * bound_constant_a(
        p.horizon
    )


def exp_concave_regret_bound(params: ProblemParams, alpha: float) -> float:
    """Regret bound (10 G D + 9 / (2 beta)) B for alpha-exp-concave losses."""
    p = params
    beta = exp_concave_beta(p, alpha)
    return (10.0 * p.grad_bound * p.diameter + 9.0 / (2.0 * beta)) * bound_constant_b(p.horizon, p.dim)
