import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import sample_point

from maler.core import (
    KIND_QUADRATIC,
    KIND_SPHERICAL,
    Ball,
    ProblemParams,
    ProjectionError,
    regret_caps,
)
from maler.meta import POTENTIAL_SLACK, logsumexp
from maler.universal import (
    AssumptionViolation,
    MalerLearner,
    OGDLearner,
    ONSLearner,
    ProtocolError,
    make_learner,
    metagrad_baseline,
    play_round,
    regret_diagnostics,
    regret_bound_certificate,
)


PARAMS = ProblemParams(horizon=16, dim=2, grad_bound=1.0, diameter=1.0)
BALL = Ball(center=np.zeros(2), radius=0.5)


@pytest.mark.parametrize("T", [2, 7, 60])
@pytest.mark.parametrize("d", [1, 3, 10])
def test_learner_invariants_hold_across_scales(d, T):
    # Seven (G, D) draws, log-uniform over eight decades, and three learners
    # each: every play and expert point lies in the ball, the log-weights stay
    # normalized and log Phi never rises by more than the certificate's slack.
    # A failure here is a program bug, not a tolerance to widen.
    rng = np.random.default_rng(1000 * d + T)
    for _ in range(7):
        G, D = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
        params = ProblemParams(horizon=T, dim=d, grad_bound=G, diameter=D)
        ball = Ball(center=np.zeros(d), radius=D / 2)
        learners = [MalerLearner(params, ball), metagrad_baseline(params, ball),
                    ONSLearner(replace(params, exp_concavity=float(10.0 ** rng.uniform(-3.0, 0.0))),
                               ball)]
        for _ in range(T):
            g = rng.standard_normal(d)
            # About a third of the rounds at the full norm G.
            g *= G * min(1.0, rng.uniform(0.0, 1.5)) / np.linalg.norm(g)
            for learner in learners:
                learner.predict()
                learner.observe(g)
                if learner.grid is not None:
                    assert abs(logsumexp(learner.log_weights)) <= 1e-12, (G, D)
        for learner in learners:
            trace = learner.trace()
            assert all(ball.contains(x) for x in trace.plays), (learner.algo, G, D)
            if trace.grid is None:
                continue
            assert all(ball.contains(x) for x in trace.expert_points.reshape(-1, d)), (G, D)
            steps = np.diff(np.concatenate([[0.0], trace.log_phi]))
            assert steps.max() <= POTENTIAL_SLACK, (learner.algo, G, D)


def test_protocol_observe_before_predict():
    learner = MalerLearner(PARAMS, BALL)
    with pytest.raises(ProtocolError):
        learner.observe(np.array([0.1, 0.0]))


def test_protocol_double_observe():
    learner = MalerLearner(PARAMS, BALL)
    learner.predict()
    learner.observe(np.array([0.1, 0.0]))
    with pytest.raises(ProtocolError):
        learner.observe(np.array([0.1, 0.0]))


def test_predict_idempotent_between_observes():
    learner = MalerLearner(PARAMS, BALL)
    a = learner.predict()
    b = learner.predict()
    np.testing.assert_array_equal(a, b)
    learner.observe(np.array([0.3, -0.1]))
    c = learner.predict()
    assert not np.array_equal(a, c)


def test_gradient_bound_enforced():
    learner = MalerLearner(PARAMS, BALL)
    learner.predict()
    with pytest.raises(AssumptionViolation):
        learner.observe(np.array([1.5, 0.0]))
    learner = MalerLearner(PARAMS, BALL)
    learner.predict()
    with pytest.raises(AssumptionViolation):
        learner.observe(np.array([np.nan, 0.0]))
    # Tiny overshoot within the 1e-9 tolerance is accepted.
    learner = MalerLearner(PARAMS, BALL)
    learner.predict()
    learner.observe(np.array([1.0 + 1e-12, 0.0]))


def test_gradient_dimension_checked():
    learner = MalerLearner(PARAMS, BALL)
    learner.predict()
    with pytest.raises(ValueError):
        learner.observe(np.array([0.1, 0.0, 0.0]))


def test_first_play_is_origin_and_feasible():
    for learner in (
        MalerLearner(PARAMS, BALL),
        metagrad_baseline(PARAMS, BALL),
        OGDLearner(PARAMS, BALL),
        ONSLearner(replace(PARAMS, exp_concavity=0.5), BALL),
    ):
        x = learner.predict()
        np.testing.assert_allclose(x, np.zeros(2), atol=1e-15)


def test_plays_stay_feasible():
    rng = np.random.default_rng(0)
    learners = [
        MalerLearner(PARAMS, BALL),
        metagrad_baseline(PARAMS, BALL),
        OGDLearner(PARAMS, BALL),
        OGDLearner(replace(PARAMS, sc_modulus=0.5), BALL, strongly_convex=True),
        ONSLearner(replace(PARAMS, exp_concavity=0.5), BALL),
    ]
    for _ in range(16):
        g = rng.normal(size=2)
        g /= max(np.linalg.norm(g), 1.0)
        for learner in learners:
            x = learner.predict()
            assert BALL.contains(x)
            learner.observe(g)


def test_ogd_convex_step_schedule():
    ball = Ball(center=np.zeros(2), radius=100.0)
    params = ProblemParams(horizon=16, dim=2, grad_bound=2.0, diameter=math.sqrt(200.0))
    learner = OGDLearner(params, ball)
    learner.predict()
    learner.observe(np.array([2.0, 0.0]))
    # Step D/(G sqrt(1)) with D = sqrt(200), G = 2; no clipping inside the ball.
    np.testing.assert_allclose(learner.predict(), [-math.sqrt(200.0), 0.0], atol=1e-12)
    learner.observe(np.array([0.0, 2.0]))
    # Step D/(G sqrt(2)) = 5.
    np.testing.assert_allclose(learner.predict(), [-math.sqrt(200.0), -10.0], atol=1e-12)


def test_ogd_sc_step_schedule():
    ball = Ball(center=np.zeros(1), radius=50.0)
    params = ProblemParams(horizon=8, dim=1, grad_bound=1.0, diameter=100.0, sc_modulus=0.1)
    learner = OGDLearner(params, ball, strongly_convex=True)
    learner.predict()
    learner.observe(np.array([1.0]))
    np.testing.assert_allclose(learner.predict(), [-10.0], atol=1e-12)
    learner.observe(np.array([1.0]))
    np.testing.assert_allclose(learner.predict(), [-15.0], atol=1e-12)


def test_ogd_requires_modulus():
    # The schedule follows the choice: convex by default, strongly convex only
    # for a problem with a modulus, and the problem refuses any modulus that is
    # not finite and positive.
    assert OGDLearner(PARAMS, BALL).algo == "ogd-convex"
    assert OGDLearner(replace(PARAMS, sc_modulus=0.5), BALL, strongly_convex=True).algo == "ogd-sc"
    with pytest.raises(ValueError, match="ogd-sc baseline needs the strong-convexity modulus"):
        OGDLearner(PARAMS, BALL, strongly_convex=True)
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="sc_modulus must be finite and > 0"):
            replace(PARAMS, sc_modulus=bad)


def test_ogd_baselines_factory():
    params = replace(PARAMS, sc_modulus=0.2)
    convex = make_learner("ogd-convex", params, BALL)
    assert isinstance(convex, OGDLearner) and convex.algo == "ogd-convex"
    sc = make_learner("ogd-sc", params, BALL)
    assert isinstance(sc, OGDLearner) and sc.algo == "ogd-sc"
    # The convex schedule ignores the modulus: its first step is D/G = 1, the
    # strongly convex one's 1/lam = 5.
    for learner in (convex, sc):
        learner.predict()
        learner.observe(np.array([0.05, 0.0]))
    np.testing.assert_allclose(convex.predict(), [-0.05, 0.0], rtol=1e-15)
    np.testing.assert_allclose(sc.predict(), [-0.25, 0.0], rtol=1e-15)
    # The strongly convex baseline exists only with a declared modulus.
    with pytest.raises(ValueError, match="ogd-sc baseline needs the strong-convexity modulus"):
        make_learner("ogd-sc", PARAMS, BALL)


def test_ons_beta_choice():
    learner = ONSLearner(replace(PARAMS, exp_concavity=10.0), BALL)
    assert learner.beta == pytest.approx(0.5 * 0.25)
    learner = ONSLearner(replace(PARAMS, exp_concavity=0.1), BALL)
    assert learner.beta == pytest.approx(0.05)
    with pytest.raises(ValueError, match="exp_concavity must be finite and > 0"):
        replace(PARAMS, exp_concavity=0.0)


def test_make_learner_names():
    for name in ("maler", "metagrad", "ogd-convex"):
        assert make_learner(name, PARAMS, BALL).algo == name
    assert make_learner("ogd-sc", replace(PARAMS, sc_modulus=0.1), BALL).algo == "ogd-sc"
    assert make_learner("ons", replace(PARAMS, exp_concavity=0.5), BALL).algo == "ons"
    with pytest.raises(ValueError, match="ons baseline needs the exp-concavity modulus"):
        make_learner("ons", PARAMS, BALL)
    with pytest.raises(ValueError):
        make_learner("nope", PARAMS, BALL)


def test_adaptive_bound_constants():
    assert sum(regret_caps(16, 2)[KIND_SPHERICAL]) == pytest.approx(8.090, abs=5e-4)
    assert sum(regret_caps(16, 2)[KIND_QUADRATIC]) == pytest.approx(
        2.0 * math.log(math.sqrt(3.0) * 5.0) + 20.0 * math.log(16.0)
    )


def test_regret_bound_certificate_on_linear_stream():
    rng = np.random.default_rng(1)
    T, d = 64, 2
    params = ProblemParams(horizon=T, dim=d, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(d), radius=0.5)
    learner = MalerLearner(params, ball)
    grads, values = [], []
    for _ in range(T):
        x = learner.predict()
        g = rng.normal(size=d)
        g /= max(np.linalg.norm(g), 1.0)
        values.append(float(g @ x))
        grads.append(g)
        learner.observe(g)
    trace = learner.trace()
    trace.loss_at_play = np.array(values)
    # For linear losses the constrained comparator has a closed form.
    total = np.sum(grads, axis=0)
    u = -0.5 * total / np.linalg.norm(total)
    trace.comparator, trace.loss_at_comparator = u, np.array([g @ u for g in grads])
    report = regret_bound_certificate(trace)
    assert report.ok
    assert len(report.rows) == 3
    # Regret recomputed against the raw plays must agree with the trace.
    diag = regret_diagnostics(trace)
    manual = sum(g @ (x - u) for g, x in zip(grads, trace.plays))
    assert diag.regret == pytest.approx(manual, abs=1e-10)
    assert diag.v_ell <= diag.v_s + 1e-9


def test_v_ell_never_exceeds_v_s():
    rng = np.random.default_rng(2)
    T, d = 32, 3
    params = ProblemParams(horizon=T, dim=d, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(d), radius=0.5)
    learner = metagrad_baseline(params, ball)
    values = []
    for _ in range(T):
        x = learner.predict()
        g = rng.normal(size=d)
        g /= max(np.linalg.norm(g), 1.0)
        values.append(float(g @ x))
        learner.observe(g)
    trace = learner.trace()
    trace.loss_at_play = np.array(values)
    u = sample_point(ball, rng)
    trace.comparator, trace.loss_at_comparator = u, np.array([g @ u for g in trace.grads])
    diag = regret_diagnostics(trace)
    assert diag.v_ell <= diag.v_s + 1e-9
    assert diag.cum_regret.shape == (T,)


def test_curvature_bound_formulas():
    params = ProblemParams(horizon=16, dim=2, grad_bound=1.0, diameter=1.0)
    a = sum(regret_caps(16, 2)[KIND_SPHERICAL])
    b = sum(regret_caps(16, 2)[KIND_QUADRATIC])
    assert params.curvature_caps == () and params.ons_beta is None
    # alpha = 1 exceeds 1/(4GD) = 0.25, so beta = 0.125.
    both = replace(params, sc_modulus=1.0, exp_concavity=1.0)
    assert both.ons_beta == 0.125
    assert both.curvature_caps == (
        ("regret <= (10GD + 9G^2/(2 lam)) A", pytest.approx((10.0 + 4.5) * a)),
        ("regret <= (10GD + 9/(2 beta)) B", pytest.approx((10.0 + 36.0) * b)),
    )
    with pytest.raises(ValueError, match="sc_modulus must be finite and > 0"):
        replace(params, sc_modulus=0.0)
    with pytest.raises(ValueError, match="exp_concavity must be finite and > 0"):
        replace(params, exp_concavity=-1.0)


@pytest.mark.parametrize("name, modulus", [
    ("sc_modulus", 5e-324), ("sc_modulus", 1e-306),
    ("exp_concavity", 5e-324), ("exp_concavity", 1e-310),
])
def test_curvature_bounds_refuse_an_infinite_cap(name, modulus):
    # A cap of inf would pass any regret; at 5e-324 exp-concavity, beta underflows to 0.
    params = ProblemParams(horizon=20, dim=5, grad_bound=25.0, diameter=1.0)
    with pytest.raises(ValueError, match=rf"^{name} {modulus!r} is out of range: .*must be finite"):
        replace(params, **{name: modulus})


def test_play_round_contract():
    class Quad:
        def value(self, x):
            return float(np.sum(np.asarray(x) ** 2))

        def gradient(self, x):
            return 2.0 * np.asarray(x, dtype=float)

    learner = OGDLearner(PARAMS, BALL)
    x, v, g = play_round(learner, Quad())
    assert v == pytest.approx(float(np.sum(x**2)))
    np.testing.assert_allclose(g, 2.0 * x)
    # The learner consumed the round: a new predict differs or advances time.
    learner.predict()


def test_protocol_horizon_enforced():
    params = ProblemParams(horizon=8, dim=2, grad_bound=1.0, diameter=1.0)
    for learner in (MalerLearner(params, BALL), OGDLearner(params, BALL),
                    ONSLearner(replace(params, exp_concavity=0.5), BALL)):
        for _ in range(8):
            learner.predict()
            learner.observe(np.array([0.1, -0.2]))
        with pytest.raises(ProtocolError):
            learner.predict()
        assert learner.trace().rounds == 8


def _drive(learner, grads):
    for g in grads:
        learner.predict()
        learner.observe(g)


def _snapshot(learner):
    trace = learner.trace()
    return {
        "plays": trace.plays.copy(), "grads": trace.grads.copy(),
        "expert_points": trace.expert_points.copy(), "log_phi": trace.log_phi.copy(),
        "state": learner.log_weights.copy(),
        "rounds": learner.bank.round,
        "points": learner.bank.points.copy(), "sigma": learner.bank.sigma.copy(),
        "sigma_inv": learner.bank.sigma_inv.copy(),
    }


def _fail_projection(self, H, y):
    raise ProjectionError("injected", 1.0)


def test_observe_is_atomic_on_projection_failure(monkeypatch):
    rng = np.random.default_rng(5)
    params = ProblemParams(horizon=6, dim=2, grad_bound=1.0, diameter=1.0)
    grads = [g / max(np.linalg.norm(g), 1.0) for g in rng.normal(size=(6, 2))]
    reference = MalerLearner(params, BALL)
    _drive(reference, grads)

    learner = MalerLearner(params, BALL)
    _drive(learner, grads[:1])
    learner.predict()
    before = _snapshot(learner)
    with monkeypatch.context() as patch:
        patch.setattr(Ball, "project_weighted", _fail_projection)
        with pytest.raises(ProjectionError):
            learner.observe(grads[1])
    after = _snapshot(learner)
    assert after.keys() == before.keys()
    for key in before:
        np.testing.assert_array_equal(after[key], before[key])
    assert after["plays"].shape[0] == after["expert_points"].shape[0] == 1

    # The pending play survives; the run resumes and matches bit for bit.
    learner.observe(grads[1])
    _drive(learner, grads[2:])
    done, ref = _snapshot(learner), _snapshot(reference)
    for key in ref:
        np.testing.assert_array_equal(done[key], ref[key])


def test_ons_observe_is_atomic_on_projection_failure(monkeypatch):
    learner = ONSLearner(replace(PARAMS, exp_concavity=0.5), BALL)
    learner.predict()
    learner.observe(np.array([0.9, 0.1]))
    learner.predict()
    sigma, x = learner._sigma.copy(), learner._x.copy()
    with monkeypatch.context() as patch:
        patch.setattr(Ball, "project_weighted", _fail_projection)
        with pytest.raises(ProjectionError):
            learner.observe(np.array([0.9, 0.1]))
    np.testing.assert_array_equal(learner._sigma, sigma)
    np.testing.assert_array_equal(learner._x, x)
    assert learner.trace().rounds == 1
