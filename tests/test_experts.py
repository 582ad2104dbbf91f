import math

import numpy as np
import pytest

from maler.core import Ball, ProblemParams
from maler.experts import (
    REFACTOR_EVERY,
    convex_expert_step,
    init_convex_expert,
    init_newton_expert,
    init_spherical_expert,
    expert_regret_c_bound,
    expert_regret_certificate,
    expert_regret_ell_bound,
    expert_regret_s_bound,
    newton_expert_step,
    ons_beta,
    ons_grad_bound,
    sherman_morrison_update,
    spherical_expert_step,
    summed_surrogate,
)
from maler.meta import KIND_CONST, KIND_QUADRATIC, KIND_SPHERICAL
from maler.surrogates import SurrogateContext
from maler.universal import MalerLearner


BALL2 = Ball(center=np.zeros(2), radius=0.5)
PARAMS2 = ProblemParams(horizon=16, dim=2, grad_bound=1.0, diameter=1.0)


def test_ons_constants():
    # G_l = 7/(25 D) makes beta = 25/56 for every D.
    assert ons_grad_bound(1.0) == pytest.approx(7.0 / 25.0)
    assert ons_grad_bound(0.5) == pytest.approx(14.0 / 25.0)
    assert ons_beta(1.0) == pytest.approx(25.0 / 56.0)
    assert ons_beta(0.25) == pytest.approx(25.0 / 56.0)


def test_convex_expert_first_step():
    eta_c = 1.0 / (2.0 * math.sqrt(PARAMS2.horizon))
    st = init_convex_expert(BALL2, PARAMS2, eta_c)
    ctx = SurrogateContext(play=np.zeros(2), grad=np.array([1.0, 0.0]),
                           eta=eta_c, G=1.0, D=1.0)
    st = convex_expert_step(st, ctx)
    # Step D/(G sqrt(1)) = 1 along -g, then projected onto the radius-1/2 ball.
    np.testing.assert_allclose(st.iterate, [-0.5, 0.0], atol=1e-15)
    assert st.round == 2


def test_convex_expert_step_decays_like_inverse_sqrt():
    eta_c = 0.05
    st = init_convex_expert(BALL2, PARAMS2, eta_c)
    g = np.array([0.02, 0.0])
    ctx = SurrogateContext(play=np.zeros(2), grad=g, eta=eta_c, G=1.0, D=1.0)
    st1 = convex_expert_step(st, ctx)
    move1 = st1.iterate[0]
    st2 = convex_expert_step(st1, ctx)
    move2 = st2.iterate[0] - st1.iterate[0]
    assert move2 / move1 == pytest.approx(1.0 / math.sqrt(2.0))


def test_spherical_expert_first_step():
    st = init_spherical_expert(BALL2, PARAMS2, eta=0.2)
    ctx = SurrogateContext(play=np.zeros(2), grad=np.array([1.0, 0.0]),
                           eta=0.2, G=1.0, D=1.0)
    st = spherical_expert_step(st, ctx)
    # Rate 1/(2 eta^2 G^2) = 12.5 times grad eta*g = (0.2, 0): projected.
    np.testing.assert_allclose(st.iterate, [-0.5, 0.0], atol=1e-15)


def test_newton_expert_hand_step():
    # D = 0.5, eta = 0.08 (the largest grid rate for G = 5), g = (5, 0).
    params = ProblemParams(horizon=16, dim=2, grad_bound=5.0, diameter=0.5)
    ball = Ball(center=np.zeros(2), radius=0.25)
    st = init_newton_expert(ball, params, eta=0.08)
    beta = 25.0 / 56.0
    scale = 1.0 / (beta**2 * 0.5**2)
    np.testing.assert_allclose(st.sigma, scale * np.eye(2))
    ctx = SurrogateContext(play=np.zeros(2), grad=np.array([5.0, 0.0]),
                           eta=0.08, G=5.0, D=0.5)
    st = newton_expert_step(st, ctx)
    # grad l = eta*g = (0.4, 0); sigma gains 0.16 in the (0,0) entry.
    np.testing.assert_allclose(st.sigma, np.diag([scale + 0.16, scale]))
    expect = -(1.0 / beta) * 0.4 / (scale + 0.16)
    np.testing.assert_allclose(st.iterate, [expect, 0.0], atol=1e-12)
    np.testing.assert_allclose(st.sigma_inv, np.linalg.inv(st.sigma), atol=1e-12)


def test_newton_expert_rejects_oversized_surrogate_gradient():
    params = ProblemParams(horizon=16, dim=2, grad_bound=5.0, diameter=0.5)
    ball = Ball(center=np.zeros(2), radius=0.25)
    st = init_newton_expert(ball, params, eta=0.26)
    # eta far above 1/(5DG) = 0.08 pushes ||grad l|| past 7/(25 D).
    ctx = SurrogateContext(play=np.zeros(2), grad=np.array([5.0, 0.0]),
                           eta=0.26, G=5.0, D=0.5)
    with pytest.raises(ValueError, match="cap"):
        newton_expert_step(st, ctx)


def test_sherman_morrison_matches_dense_inverse():
    rng = np.random.default_rng(3)
    A = np.eye(4) * 2.0
    A_inv = np.linalg.inv(A)
    for _ in range(60):
        v = rng.normal(size=4) * 0.5
        A = A + np.outer(v, v)
        A_inv = sherman_morrison_update(A_inv, v)
    assert np.max(np.abs(A_inv - np.linalg.inv(A))) <= 1e-10


def test_newton_expert_inverse_stays_fresh_over_100_rounds():
    rng = np.random.default_rng(4)
    params = ProblemParams(horizon=128, dim=5, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(5), radius=0.5)
    eta = 1.0 / 5.0
    st = init_newton_expert(ball, params, eta=eta)
    play = np.zeros(5)
    for t in range(100):
        g = rng.normal(size=5)
        g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
        ctx = SurrogateContext(play=play, grad=g, eta=eta, G=1.0, D=1.0)
        st = newton_expert_step(st, ctx)
        play = ball.sample(rng)
    assert st.updates == 100
    assert np.max(np.abs(st.sigma_inv - np.linalg.inv(st.sigma))) <= 1e-8


def test_refactor_cadence_resets_drift():
    rng = np.random.default_rng(5)
    params = ProblemParams(horizon=1024, dim=2, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(2), radius=0.5)
    st = init_newton_expert(ball, params, eta=0.2)
    play = np.zeros(2)
    for t in range(REFACTOR_EVERY):
        g = rng.normal(size=2)
        g *= rng.uniform(0.2, 1.0) / np.linalg.norm(g)
        ctx = SurrogateContext(play=play, grad=g, eta=0.2, G=1.0, D=1.0)
        st = newton_expert_step(st, ctx)
    # The 512th update re-inverts densely, so agreement is near-exact.
    assert st.updates == REFACTOR_EVERY
    assert np.max(np.abs(st.sigma_inv - np.linalg.inv(st.sigma))) <= 1e-12


def test_expert_iterates_stay_feasible():
    rng = np.random.default_rng(6)
    params = ProblemParams(horizon=64, dim=3, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(3), radius=0.5)
    conv = init_convex_expert(ball, params, eta_c=1.0 / 16.0)
    sph = init_spherical_expert(ball, params, eta=0.2)
    newt = init_newton_expert(ball, params, eta=0.2)
    for t in range(64):
        g = rng.normal(size=3)
        g /= max(np.linalg.norm(g), 1.0)
        play = ball.sample(rng)
        ctx_c = SurrogateContext(play=play, grad=g, eta=1.0 / 16.0, G=1.0, D=1.0)
        ctx = SurrogateContext(play=play, grad=g, eta=0.2, G=1.0, D=1.0)
        conv = convex_expert_step(conv, ctx_c)
        sph = spherical_expert_step(sph, ctx)
        newt = newton_expert_step(newt, ctx)
        for st in (conv, sph, newt):
            assert ball.contains(st.iterate, tol=1e-9)


def _random_history(rng, T, d, G=1.0, radius=0.5):
    plays = np.array([Ball(center=np.zeros(d), radius=radius).sample(rng) for _ in range(T)])
    grads = rng.normal(size=(T, d))
    grads *= (G * rng.uniform(0.05, 1.0, size=(T, 1))) / np.linalg.norm(grads, axis=1, keepdims=True)
    return plays, grads


def test_summed_surrogate_matches_per_round_sum():
    from maler import surrogates

    rng = np.random.default_rng(7)
    T, d, G, D = 12, 3, 1.0, 1.0
    plays, grads = _random_history(rng, T, d)
    u = rng.normal(size=d) * 0.4
    for kind, fn in (
        (KIND_CONST, surrogates.c_value),
        (KIND_SPHERICAL, surrogates.s_value),
        (KIND_QUADRATIC, surrogates.ell_value),
    ):
        eta = 0.1 if kind != KIND_CONST else 0.02
        obj = summed_surrogate(kind, plays, grads, eta, G, D)
        direct = sum(
            fn(SurrogateContext(play=plays[t], grad=grads[t], eta=eta, G=G, D=D), u)
            for t in range(T)
        )
        assert obj.value(u) == pytest.approx(direct, abs=1e-9)
        np.testing.assert_allclose(obj.values(np.array([u, u * 0.5]))[0], direct, atol=1e-9)


def test_summed_surrogate_minimizer_beats_grid():
    rng = np.random.default_rng(8)
    T, d = 10, 2
    ball = Ball(center=np.zeros(d), radius=0.5)
    plays, grads = _random_history(rng, T, d)
    xs = np.linspace(-0.5, 0.5, 501)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[np.einsum("nd,nd->n", pts, pts) <= 0.25]
    for kind, eta in ((KIND_CONST, 0.02), (KIND_SPHERICAL, 0.15), (KIND_QUADRATIC, 0.15)):
        obj = summed_surrogate(kind, plays, grads, eta, 1.0, 1.0)
        u = obj.minimize(ball)
        assert ball.contains(u, tol=1e-9)
        assert obj.value(u) <= float(obj.values(pts).min()) + 1e-6


def test_expert_regret_bound_values():
    assert expert_regret_s_bound(16) == pytest.approx(1.0 + math.log(16.0))
    assert expert_regret_ell_bound(16, 2) == pytest.approx(20.0 * math.log(16.0))
    assert expert_regret_c_bound() == 0.75


def test_expert_regret_certificate_on_real_run():
    rng = np.random.default_rng(9)
    params = ProblemParams(horizon=32, dim=2, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(2), radius=0.5)
    learner = MalerLearner(params, ball)
    for _ in range(32):
        learner.predict()
        g = rng.normal(size=2)
        g /= max(np.linalg.norm(g), 1.0)
        learner.observe(g)
    report = expert_regret_certificate(learner.trace())
    assert report.ok
    assert len(report.rows) == learner.grid.size
