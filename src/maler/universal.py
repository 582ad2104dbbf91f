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
from functools import partial

import numpy as np

from . import core, experts, meta
from .core import Ball, ProblemParams, as_vector
from .meta import CertificateReport, CertificateRow, ExpertGrid, RunTrace


class ProtocolError(RuntimeError):
    """predict/observe called out of order."""


class AssumptionViolation(RuntimeError):
    """Observed data contradicts the declared problem constants."""


class Learner:
    """Base predict/observe learner with gradient validation and tracing."""

    algo = "learner"
    grid = None  # the ExpertGrid of an ensemble; a baseline runs on none

    def __init__(self, params: ProblemParams, dset: Ball):
        if dset.dim != params.dim:
            raise ValueError("decision set dimension does not match the problem")
        self.params = params
        self.dset = dset
        self._pending: np.ndarray | None = None
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
        gn = math.sqrt(g.dot(g))  # np.linalg.norm's float operations
        if not np.isfinite(g).all():
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
        return RunTrace(algo=self.algo, params=self.params, dset=self.dset, grid=self.grid,
                        plays=np.array(self._plays).reshape(-1, d),
                        grads=np.array(self._grads).reshape(-1, d))


class _TiltedEnsembleLearner(Learner):
    """Shared engine: a grid of experts under tilted exponential weights."""

    def __init__(self, params: ProblemParams, dset: Ball, grid: ExpertGrid):
        super().__init__(params, dset)
        self.algo = grid.style
        self.grid = grid
        self.log_weights = grid.log_priors.copy()
        self.log_phi = 0.0
        self.bank = experts.ExpertBank.build(grid, params, dset)
        self._expert_points: list = []
        self._losses: list = []
        self._log_weights: list = []
        self._log_phi: list = []

    def _predict(self) -> np.ndarray:
        return meta.aggregate_play(self.log_weights, self.grid, self.bank.points)

    def _observe(self, play: np.ndarray, grad: np.ndarray) -> None:
        losses = self.bank.losses(play, grad)
        log_weights, log_z = meta.update_weights(self.log_weights, self.grid, losses)
        bank = self.bank.step(play, grad)
        self._expert_points.append(self.bank.points)
        # update_weights returns a fresh array, so the record may hold it as is.
        self.log_weights, self.log_phi, self.bank = log_weights, self.log_phi + log_z, bank
        self._losses.append(losses)
        self._log_weights.append(log_weights)
        self._log_phi.append(self.log_phi)

    def trace(self) -> RunTrace:
        t = super().trace()
        E, d = self.grid.size, self.params.dim
        t.expert_points = np.array(self._expert_points).reshape(-1, E, d)
        t.surrogate_losses = np.array(self._losses).reshape(-1, E)
        t.log_weights = np.array(self._log_weights).reshape(-1, E)
        t.log_phi = np.array(self._log_phi)
        return t


class MalerLearner(_TiltedEnsembleLearner):
    """Universal learner: constant-rate, spherical, and quadratic experts."""

    def __init__(self, params: ProblemParams, dset: Ball):
        super().__init__(params, dset, meta.build_grid(params))


def metagrad_baseline(params: ProblemParams, dset: Ball) -> Learner:
    """Baseline ensemble with quadratic-surrogate experts only."""
    return _TiltedEnsembleLearner(params, dset, meta.build_grid(params, "metagrad"))


class OGDLearner(Learner):
    """Projected online gradient descent on the true gradients: "ogd-convex" on the
    D/(G sqrt(t)) schedule, and "ogd-sc", for a problem with a strong-convexity
    modulus lam, on the 1/(lam t) schedule."""

    def __init__(self, params: ProblemParams, dset: Ball, strongly_convex: bool = False):
        super().__init__(params, dset)
        if strongly_convex and params.sc_modulus is None:
            raise ValueError("ogd-sc baseline needs the strong-convexity modulus sc_modulus")
        self.algo = "ogd-sc" if strongly_convex else "ogd-convex"
        self._x = np.zeros(params.dim)

    def _predict(self) -> np.ndarray:
        return self._x

    def _observe(self, play: np.ndarray, grad: np.ndarray) -> None:
        t = len(self._plays) + 1
        if self.algo == "ogd-convex":
            step = self.params.diameter / (self.params.grad_bound * math.sqrt(t))
        else:
            step = 1.0 / (self.params.sc_modulus * t)
        self._x = self.dset.project(self._x - step * grad)


class ONSLearner(Learner):
    """Online Newton step on the true gradients at ONS's beta, params.ons_beta (from alpha)."""

    algo = "ons"

    def __init__(self, params: ProblemParams, dset: Ball):
        super().__init__(params, dset)
        if params.ons_beta is None:
            raise ValueError("ons baseline needs the exp-concavity modulus exp_concavity")
        self.beta = params.ons_beta
        self._x = np.zeros(params.dim)
        self._sigma, self._sigma_inv = core.newton_metric(self.beta, params.diameter, params.dim)

    def _predict(self) -> np.ndarray:
        return self._x

    def _observe(self, play: np.ndarray, grad: np.ndarray) -> None:
        sigma, sigma_inv = experts.newton_metric_update(self._sigma, self._sigma_inv,
                                                        len(self._plays), grad)
        target = self._x - (1.0 / self.beta) * (sigma_inv @ grad)
        self._x = experts.newton_expert_step(sigma, target, self.dset)
        self._sigma, self._sigma_inv = sigma, sigma_inv


# Every algo by name, with its constructor, called as (params, dset).
LEARNERS = {"maler": MalerLearner, "metagrad": metagrad_baseline, "ogd-convex": OGDLearner,
            "ogd-sc": partial(OGDLearner, strongly_convex=True), "ons": ONSLearner}


def learner_factory(name: str):
    """LEARNERS[name]; ValueError naming the known algos if name is none of them."""
    if name not in LEARNERS:
        raise ValueError(f"unknown algo {name!r}; known: {', '.join(LEARNERS)}")
    return LEARNERS[name]


def make_learner(name: str, params: ProblemParams, dset: Ball) -> Learner:
    """The learner of algo name on params and dset (learner_factory refuses an unknown name)."""
    return learner_factory(name)(params, dset)


def play_round(learner: Learner, oracle) -> tuple:
    """Run one protocol round against a loss oracle; returns (x, value, grad)."""
    x = learner.predict()
    val = float(oracle.value(x))
    g = oracle.gradient(x)
    learner.observe(g)
    return x, val, g


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
    """Check measured regret against the simultaneous regret bounds.

    The worst-case bound 2(1+ln3) G D sqrt(T) and the two adaptive bounds
    3 sqrt(V B) + 10 G D B must all hold at once, with V the spherical or
    quadratic cumulative deviation and B the matching constant, the sum of
    that kind's two caps in core.regret_caps; these three rows take T to be
    the played rounds. Each curvature modulus the trace's params record adds
    its row of params.curvature_caps, at T the horizon.
    """
    diag = regret_diagnostics(trace)
    p = trace.params
    T, d = trace.plays.shape
    GD = p.grad_bound * p.diameter
    caps = core.regret_caps(T, d)
    a, b = sum(caps[core.KIND_SPHERICAL]), sum(caps[core.KIND_QUADRATIC])
    bounds = [
        ("regret <= 2(1+ln3) G D sqrt(T)", 2.0 * (1.0 + math.log(3.0)) * GD * math.sqrt(T)),
        ("regret <= 3 sqrt(V_ell B) + 10 G D B", 3.0 * math.sqrt(diag.v_ell * b) + 10.0 * GD * b),
        ("regret <= 3 sqrt(V_s A) + 10 G D A", 3.0 * math.sqrt(diag.v_s * a) + 10.0 * GD * a),
        *p.curvature_caps,
    ]
    rows = [CertificateRow(label=label, measured=diag.regret, bound=bound)
            for label, bound in bounds]
    return CertificateReport(name="regret-bounds", rows=rows)
