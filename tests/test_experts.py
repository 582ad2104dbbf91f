import math

import numpy as np
import pytest

from maler import surrogates
from maler.core import Ball, ProblemParams
from maler.experts import (
    REFACTOR_EVERY,
    ExpertBank,
    convex_expert_step,
    expert_regret_c_bound,
    expert_regret_certificate,
    expert_regret_ell_bound,
    expert_regret_s_bound,
    newton_expert_step,
    newton_metric,
    newton_metric_update,
    ons_beta,
    ons_grad_bound,
    sherman_morrison_update,
    spherical_expert_step,
    summed_surrogate,
)
from maler.meta import KIND_CONST, KIND_QUADRATIC, KIND_SPHERICAL, build_grid
from maler.surrogates import SurrogateContext
from maler.universal import MalerLearner, ONSLearner, metagrad_baseline


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
    nxt = convex_expert_step(np.zeros((1, 2)), np.array([eta_c]), 1, np.array([1.0, 0.0]),
                             1.0, 1.0, BALL2)
    # Step D/(G sqrt(1)) = 1 along -g, then projected onto the radius-1/2 ball.
    np.testing.assert_allclose(nxt, [[-0.5, 0.0]], atol=1e-15)
    bank = ExpertBank.build((KIND_CONST,), [eta_c], PARAMS2, BALL2)
    bank = bank.step(np.zeros(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(bank.points, [[-0.5, 0.0]], atol=1e-15)
    assert bank.round == 2


def test_convex_expert_step_decays_like_inverse_sqrt():
    bank = ExpertBank.build((KIND_CONST,), [0.05], PARAMS2, BALL2)
    g = np.array([0.02, 0.0])
    b1 = bank.step(np.zeros(2), g)
    move1 = b1.points[0, 0]
    b2 = b1.step(np.zeros(2), g)
    move2 = b2.points[0, 0] - b1.points[0, 0]
    assert move2 / move1 == pytest.approx(1.0 / math.sqrt(2.0))


def test_spherical_expert_first_step():
    sph = np.array([0.2**2 * 1.0**2])
    nxt = spherical_expert_step(np.zeros((1, 2)), np.array([0.2]), sph, 1, np.zeros(2),
                                np.array([1.0, 0.0]), BALL2)
    # Rate 1/(2 eta^2 G^2) = 12.5 times grad eta*g = (0.2, 0): projected.
    np.testing.assert_allclose(nxt, [[-0.5, 0.0]], atol=1e-15)
    bank = ExpertBank.build((KIND_SPHERICAL,), [0.2], PARAMS2, BALL2)
    bank = bank.step(np.zeros(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(bank.points, [[-0.5, 0.0]], atol=1e-15)


def test_newton_expert_hand_step():
    # D = 0.5, eta = 0.08 (the largest grid rate for G = 5), g = (5, 0).
    params = ProblemParams(horizon=16, dim=2, grad_bound=5.0, diameter=0.5)
    ball = Ball(center=np.zeros(2), radius=0.25)
    bank = ExpertBank.build((KIND_QUADRATIC,), [0.08], params, ball)
    beta = 25.0 / 56.0
    scale = 1.0 / (beta**2 * 0.5**2)
    np.testing.assert_allclose(bank.sigma[0], scale * np.eye(2))
    bank = bank.step(np.zeros(2), np.array([5.0, 0.0]))
    # grad l = eta*g = (0.4, 0); sigma gains 0.16 in the (0,0) entry.
    np.testing.assert_allclose(bank.sigma[0], np.diag([scale + 0.16, scale]))
    expect = -(1.0 / beta) * 0.4 / (scale + 0.16)
    np.testing.assert_allclose(bank.points[0], [expect, 0.0], atol=1e-12)
    np.testing.assert_allclose(bank.sigma_inv[0], np.linalg.inv(bank.sigma[0]), atol=1e-12)
    # The kernels alone, on the surrogate gradient eta*g, give the same step.
    g = 0.08 * np.array([5.0, 0.0])
    sigma, sigma_inv = newton_metric_update(*newton_metric(ons_beta(0.5), 0.5, 2), 0, g)
    x = newton_expert_step(np.zeros(2), sigma, sigma_inv, g, ons_beta(0.5), ball)
    np.testing.assert_array_equal(x, bank.points[0])
    np.testing.assert_array_equal(sigma, bank.sigma[0])
    np.testing.assert_array_equal(sigma_inv, bank.sigma_inv[0])


def test_newton_expert_rejects_oversized_surrogate_gradient():
    params = ProblemParams(horizon=16, dim=2, grad_bound=5.0, diameter=0.5)
    ball = Ball(center=np.zeros(2), radius=0.25)
    bank = ExpertBank.build((KIND_CONST, KIND_QUADRATIC), [0.08, 0.26], params, ball)
    # eta far above 1/(5DG) = 0.08 pushes ||grad l|| past 7/(25 D); the cap
    # is checked before any row steps.
    with pytest.raises(ValueError, match="cap"):
        bank.step(np.zeros(2), np.array([5.0, 0.0]))
    np.testing.assert_array_equal(bank.points, np.zeros((2, 2)))
    assert bank.round == 1


def test_bank_rejects_rates_above_the_surrogate_cap():
    # 2/(3DG) = 2/3 for D = G = 1.
    with pytest.raises(ValueError, match="2/\\(3DG\\)"):
        ExpertBank.build((KIND_SPHERICAL,), [0.7], PARAMS2, BALL2)
    with pytest.raises(ValueError):
        ExpertBank.build((KIND_CONST,), [0.0], PARAMS2, BALL2)
    with pytest.raises(ValueError):
        ExpertBank.build(("q",), [0.1], PARAMS2, BALL2)


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
    bank = ExpertBank.build((KIND_QUADRATIC,), [1.0 / 5.0], params, ball)
    play = np.zeros(5)
    for t in range(100):
        g = rng.normal(size=5)
        g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
        bank = bank.step(play, g)
        play = ball.sample(rng)
    assert bank.round - 1 == 100
    assert np.max(np.abs(bank.sigma_inv[0] - np.linalg.inv(bank.sigma[0]))) <= 1e-8


def test_refactor_cadence_resets_drift():
    rng = np.random.default_rng(5)
    params = ProblemParams(horizon=1024, dim=2, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(2), radius=0.5)
    bank = ExpertBank.build((KIND_QUADRATIC,), [0.2], params, ball)
    play = np.zeros(2)
    for t in range(REFACTOR_EVERY):
        g = rng.normal(size=2)
        g *= rng.uniform(0.2, 1.0) / np.linalg.norm(g)
        bank = bank.step(play, g)
    # The 512th update re-inverts densely, so agreement is near-exact.
    assert bank.round - 1 == REFACTOR_EVERY
    assert np.max(np.abs(bank.sigma_inv[0] - np.linalg.inv(bank.sigma[0]))) <= 1e-12
    # The kernel re-inverts on exactly that update: a stale inverse is discarded.
    sigma = np.eye(2)
    g = np.array([0.3, 0.1])
    for updates, fresh in ((REFACTOR_EVERY - 2, False), (REFACTOR_EVERY - 1, True)):
        s, s_inv = newton_metric_update(sigma, np.zeros((2, 2)), updates, g)
        assert np.array_equal(s_inv, np.linalg.inv(s)) == fresh


def _one_row_sherman_morrison(A_inv, v):
    Av = A_inv @ v
    return A_inv - Av[:, None] * Av / (1.0 + float(v @ Av))


def test_stacked_metric_update_matches_each_slice_bit_for_bit():
    # One update of all L rows must give each row exactly what a 2-D update
    # of that row alone gives, on Sherman-Morrison and on refactor rounds,
    # and what the one-row formula above gives.
    rng = np.random.default_rng(12)
    for d in (1, 2, 10, 50):
        for L in (1, 6):
            A = rng.normal(size=(L, d, d))
            sigma = A @ np.swapaxes(A, -1, -2) + np.eye(d)
            sigma_inv = np.linalg.inv(sigma)
            G = rng.normal(size=(L, d))
            stacked = sherman_morrison_update(sigma_inv, G)
            assert stacked.shape == (L, d, d)
            for j in range(L):
                assert np.array_equal(stacked[j], sherman_morrison_update(sigma_inv[j], G[j]))
                assert np.array_equal(stacked[j], _one_row_sherman_morrison(sigma_inv[j], G[j]))
            for updates in (0, REFACTOR_EVERY - 1):
                S, S_inv = newton_metric_update(sigma, sigma_inv, updates, G)
                for j in range(L):
                    s, s_inv = newton_metric_update(sigma[j], sigma_inv[j], updates, G[j])
                    assert np.array_equal(S[j], s) and np.array_equal(S_inv[j], s_inv)


def test_expert_iterates_stay_feasible():
    rng = np.random.default_rng(6)
    params = ProblemParams(horizon=64, dim=3, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(3), radius=0.5)
    bank = ExpertBank.build((KIND_CONST, KIND_SPHERICAL, KIND_QUADRATIC),
                            [1.0 / 16.0, 0.2, 0.2], params, ball)
    for t in range(64):
        g = rng.normal(size=3)
        g /= max(np.linalg.norm(g), 1.0)
        play = ball.sample(rng)
        bank = bank.step(play, g)
        for x in bank.points:
            assert ball.contains(x, tol=0.0)


def test_expert_values_match_scalar_surrogates():
    rng = np.random.default_rng(10)
    T, d, G, D = 6, 3, 2.0, 1.0
    params = ProblemParams(horizon=64, dim=d, grad_bound=G, diameter=D)
    ball = Ball(center=np.zeros(d), radius=0.5)
    grid = build_grid(params)
    scalar = {KIND_CONST: surrogates.c_value, KIND_SPHERICAL: surrogates.s_value,
              KIND_QUADRATIC: surrogates.ell_value}
    plays, grads = _random_history(rng, T, d, G=G)
    points = np.array([[ball.sample(rng) for _ in range(grid.size)] for _ in range(T)])
    constants = surrogates.expert_constants(grid.kinds, grid.tilts, G, D)
    stacked = surrogates.expert_values(grid.tilts, constants, points, plays, grads)
    assert stacked.shape == (T, grid.size)
    for t in range(T):
        one = surrogates.expert_values(grid.tilts, constants, points[t], plays[t], grads[t])
        np.testing.assert_array_equal(one, stacked[t])
        for e, kind in enumerate(grid.kinds):
            ctx = SurrogateContext(play=plays[t], grad=grads[t], eta=float(grid.tilts[e]), G=G, D=D)
            assert one[e] == pytest.approx(scalar[kind](ctx, points[t, e]), rel=0, abs=1e-15)


def test_newton_sigma_stays_exactly_symmetric_and_positive_definite():
    # Sigma = I / (beta D)^2 plus rank-one updates g[:, None] * g, each exactly
    # symmetric, so every Newton row of maler and metagrad, and ONS, keeps an
    # exactly symmetric Sigma with a Cholesky factor, whatever the scale of G and D.
    rng = np.random.default_rng(2026)
    for _ in range(16):
        G, D = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
        d, T = int(rng.integers(1, 5)), 24
        params = ProblemParams(horizon=T, dim=d, grad_bound=G, diameter=D)
        ball = Ball(center=np.zeros(d), radius=D / 2)
        ensembles = [MalerLearner(params, ball), metagrad_baseline(params, ball)]
        ons = ONSLearner(params, ball, alpha=float(10.0 ** rng.uniform(-3.0, 0.0)))
        for learner in ensembles:
            ell = [e for e, kind in enumerate(learner.grid.kinds) if kind == KIND_QUADRATIC]
            np.testing.assert_array_equal(learner.bank.rows[2], ell)
            assert learner.bank.sigma.shape == learner.bank.sigma_inv.shape == (len(ell), d, d)
        for _ in range(T):
            g = rng.standard_normal(d)
            g *= G * rng.uniform() / np.linalg.norm(g)
            for learner in ensembles + [ons]:
                learner.predict()
                learner.observe(g)
            for S in [*ensembles[0].bank.sigma, *ensembles[1].bank.sigma, ons._sigma]:
                assert np.array_equal(S, S.T), (G, D)
                np.linalg.cholesky(S)


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
