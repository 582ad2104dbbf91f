import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import quadratic_values, sample_point

from maler import core, experts, surrogates
from maler.core import (
    KIND_CONST,
    KIND_QUADRATIC,
    KIND_SPHERICAL,
    Ball,
    ProblemParams,
    newton_beta,
    newton_metric,
    ons_grad_bound,
    regret_caps,
    rowdot,
)
from maler.experts import (
    EINSUM_MIN_DIM,
    REFACTOR_EVERY,
    ExpertBank,
    SurrogateSums,
    convex_expert_step,
    expert_regret_certificate,
    newton_expert_step,
    newton_metric_update,
    sherman_morrison_update,
    spherical_expert_step,
    summed_surrogate,
)
from maler.harness import (
    gen_classification_file,
    gen_regression,
    load_classification,
    run_stream,
)
from maler.meta import ExpertGrid, build_grid
from maler.surrogates import SurrogateContext
from maler.universal import MalerLearner, ONSLearner, make_learner, metagrad_baseline


BALL2 = Ball(center=np.zeros(2), radius=0.5)
PARAMS2 = ProblemParams(horizon=16, dim=2, grad_bound=1.0, diameter=1.0)


def _grid(kinds, etas, params):
    """An ExpertGrid of the given experts, with uniform priors, for a bank on params; its
    constants are computed as build_grid computes them."""
    etas = np.asarray(etas, dtype=float)
    return ExpertGrid(style="test", kinds=tuple(kinds), tilts=etas,
                      log_priors=np.full(len(kinds), -math.log(len(kinds))),
                      labels=tuple(f"e[{e}]" for e in range(len(kinds))),
                      constants=surrogates.expert_constants(kinds, etas, params.grad_bound,
                                                            params.diameter))


def test_ons_constants():
    # G_l = 7/(25 D) makes beta = 25/56 for every D.
    assert ons_grad_bound(1.0) == pytest.approx(7.0 / 25.0)
    assert ons_grad_bound(0.5) == pytest.approx(14.0 / 25.0)
    for D in (1.0, 0.25):
        assert newton_beta(ons_grad_bound(D), D, 1.0) == pytest.approx(25.0 / 56.0)
    assert newton_beta(2.0, 0.5, 0.1) == 0.05
    # The problem checks alpha > 0 once, where it is recorded.
    with pytest.raises(ValueError, match="exp_concavity must be finite and > 0"):
        ProblemParams(horizon=2, dim=1, grad_bound=1.0, diameter=1.0, exp_concavity=0.0)


def test_newton_metric_refuses_a_scale_that_overflows():
    for beta, D in ((1e-200, 1.0), (0.45, 2e-155), (5e-324, 1.0)):
        with pytest.raises(ValueError, match="online Newton metric"):
            newton_metric(beta, D, 2)


def _ons_beta_reference(D):
    """The bank's beta as computed before newton_beta: min(1/(4 G_l D), 1) / 2."""
    return 0.5 * min(1.0 / (4.0 * ons_grad_bound(D) * D), 1.0)


def test_newton_beta_matches_the_bank_reference_bit_for_bit():
    # 4 (G D) and (4 G) D round alike: scaling by 4 is exact.
    rng = np.random.default_rng(31)
    for D in np.exp(rng.uniform(-20.0, 20.0, size=2000)):
        assert newton_beta(ons_grad_bound(D), D, 1.0) == _ons_beta_reference(D)


def test_convex_expert_first_step():
    eta_c = 1.0 / (2.0 * math.sqrt(PARAMS2.horizon))
    nxt = convex_expert_step(np.zeros((1, 2)), np.array([eta_c]), 1, np.array([1.0, 0.0]),
                             1.0, 1.0)
    # Step D/(G sqrt(1)) = 1 along -g; the bank projects it onto the radius-1/2 ball.
    np.testing.assert_allclose(nxt, [[-1.0, 0.0]], atol=1e-15)
    bank = ExpertBank.build(_grid((KIND_CONST,), [eta_c], PARAMS2), PARAMS2, BALL2)
    bank = bank.step(np.zeros(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(bank.points, [[-0.5, 0.0]], atol=1e-15)
    assert bank.round == 2


def test_convex_expert_step_decays_like_inverse_sqrt():
    bank = ExpertBank.build(_grid((KIND_CONST,), [0.05], PARAMS2), PARAMS2, BALL2)
    g = np.array([0.02, 0.0])
    b1 = bank.step(np.zeros(2), g)
    move1 = b1.points[0, 0]
    b2 = b1.step(np.zeros(2), g)
    move2 = b2.points[0, 0] - b1.points[0, 0]
    assert move2 / move1 == pytest.approx(1.0 / math.sqrt(2.0))


@pytest.mark.parametrize("style, calls", [("metagrad", 0), ("maler", 1)])
def test_bank_steps_only_the_families_its_grid_holds(monkeypatch, style, calls):
    # The c and s rows are clipped by one Ball.project call on their stack.
    counts = {"convex_expert_step": 0, "spherical_expert_step": 0, "project": 0}
    for owner, name in ((experts, "convex_expert_step"), (experts, "spherical_expert_step"),
                        (Ball, "project")):
        def counted(*args, _name=name, _step=getattr(owner, name)):
            counts[_name] += 1
            return _step(*args)
        monkeypatch.setattr(owner, name, counted)
    grid = build_grid(PARAMS2, style)
    bank = ExpertBank.build(grid, PARAMS2, BALL2)
    for t, grad in enumerate(([0.6, 0.0], [0.0, -0.8], [0.3, 0.4]), start=1):
        bank = bank.step(np.array([0.1, -0.2]), np.array(grad))
        assert counts == {"convex_expert_step": calls * t, "spherical_expert_step": calls * t,
                          "project": calls * t}
    assert bank.round == 4


def _reference_step(grid, params, dset, bank, play, grad, outside):
    """(points, Sigma, Sigma^{-1}) after the bank's step as it was computed before its
    families were stacked: each family projected on its own, from the grid alone, and
    each Newton target as its own matvec. Adds the kind of every row whose descent
    point or target lies outside dset to outside."""
    G, D, t, X = params.grad_bound, params.diameter, bank.round, bank.points
    etas, kinds = grid.tilts, np.asarray(grid.kinds)
    conv, sph, ell = (np.flatnonzero(kinds == kind)
                      for kind in (KIND_CONST, KIND_SPHERICAL, KIND_QUADRATIC))
    beta = newton_beta(ons_grad_bound(D), D, 1.0)
    ip = rowdot(X[ell] - play, grad)
    slope = np.array([2.0 * float(eta) ** 2 for eta in etas[ell]])
    ell_grads = (etas[ell] + slope * ip)[:, None] * grad
    nxt = np.empty_like(X)
    if conv.size:
        step = D / (etas[conv] * G * math.sqrt(t))
        nxt[conv] = X[conv] - step[:, None] * (etas[conv][:, None] * grad)
    if sph.size:
        s = surrogates.expert_constants(kinds, etas, G, D)[1, sph]
        g = etas[sph][:, None] * grad + (2.0 * s)[:, None] * (X[sph] - play)
        nxt[sph] = X[sph] - (1.0 / (2.0 * s * t))[:, None] * g
    for rows in (conv, sph):
        if rows.size:
            outside.update(kinds[e] for e in rows if not dset.contains(nxt[e]))
            nxt[rows] = dset.project(nxt[rows])
    sigma, sigma_inv = newton_metric_update(bank.sigma, bank.sigma_inv, t - 1, ell_grads)
    for j, e in enumerate(ell):
        target = X[e] - (1.0 / beta) * (sigma_inv[j] @ ell_grads[j])
        if not dset.contains(target):
            outside.add(KIND_QUADRATIC)
        nxt[e] = dset.project_weighted(sigma[j], target)
    return nxt, sigma, sigma_inv


@pytest.mark.parametrize("style", ["maler", "metagrad"])
@pytest.mark.parametrize("d", [3, EINSUM_MIN_DIM + 6])
def test_bank_step_matches_the_per_family_reference_bit_for_bit(monkeypatch, style, d):
    monkeypatch.setattr(experts, "REFACTOR_EVERY", 7)  # refactor rounds 7, 14, ...
    rng = np.random.default_rng(24 + d)
    T, G, D = 40, 2.0, 1.5
    params = ProblemParams(horizon=T, dim=d, grad_bound=G, diameter=D)
    c = rng.standard_normal(d)
    dset = Ball(center=(0.2 * D / np.linalg.norm(c)) * c, radius=D / 2)  # holds the origin
    grid = build_grid(params, style)
    bank = ExpertBank.build(grid, params, dset)
    drift = rng.standard_normal(d)  # a steady direction pushes the Newton rows out
    outside = set()
    for _ in range(T):
        play = bank.points.mean(axis=0) if bank.round > 1 else dset.center
        g = drift + 0.3 * rng.standard_normal(d)
        g *= G * rng.uniform(0.5, 1.0) / np.linalg.norm(g)
        want = _reference_step(grid, params, dset, bank, play, g, outside)
        bank = bank.step(play, g)
        for got, ref in zip((bank.points, bank.sigma, bank.sigma_inv), want):
            assert got.tobytes() == ref.tobytes()
    assert outside == set(grid.kinds)


def test_spherical_expert_first_step():
    sph = np.array([0.2**2 * 1.0**2])
    nxt = spherical_expert_step(np.zeros((1, 2)), np.array([0.2]), sph, 1, np.zeros(2),
                                np.array([1.0, 0.0]))
    # Rate 1/(2 eta^2 G^2) = 12.5 times grad eta*g = (0.2, 0); the bank projects it.
    np.testing.assert_allclose(nxt, [[-2.5, 0.0]], atol=1e-15)
    bank = ExpertBank.build(_grid((KIND_SPHERICAL,), [0.2], PARAMS2), PARAMS2, BALL2)
    bank = bank.step(np.zeros(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(bank.points, [[-0.5, 0.0]], atol=1e-15)


def test_newton_expert_hand_step():
    # D = 0.5, eta = 0.08 (the largest grid rate for G = 5), g = (5, 0).
    params = ProblemParams(horizon=16, dim=2, grad_bound=5.0, diameter=0.5)
    ball = Ball(center=np.zeros(2), radius=0.25)
    bank = ExpertBank.build(_grid((KIND_QUADRATIC,), [0.08], params), params, ball)
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
    beta = newton_beta(ons_grad_bound(0.5), 0.5, 1.0)
    sigma, sigma_inv = newton_metric_update(*newton_metric(beta, 0.5, 2), 0, g)
    x = newton_expert_step(sigma, np.zeros(2) - (1.0 / beta) * (sigma_inv @ g), ball)
    np.testing.assert_array_equal(x, bank.points[0])
    np.testing.assert_array_equal(sigma, bank.sigma[0])
    np.testing.assert_array_equal(sigma_inv, bank.sigma_inv[0])


def test_newton_expert_rejects_oversized_surrogate_gradient():
    params = ProblemParams(horizon=16, dim=2, grad_bound=5.0, diameter=0.5)
    ball = Ball(center=np.zeros(2), radius=0.25)
    grid = _grid((KIND_CONST, KIND_QUADRATIC), [0.08, 0.26], params)
    bank = ExpertBank.build(grid, params, ball)
    # eta far above 1/(5DG) = 0.08 pushes ||grad l|| past 7/(25 D); the cap
    # is checked before any row steps.
    with pytest.raises(ValueError, match="cap"):
        bank.step(np.zeros(2), np.array([5.0, 0.0]))
    np.testing.assert_array_equal(bank.points, np.zeros((2, 2)))
    assert bank.round == 1


def test_bank_rejects_rates_above_the_surrogate_cap():
    # 2/(3DG) = 2/3 for D = G = 1.
    with pytest.raises(ValueError, match="2/\\(3DG\\)"):
        ExpertBank.build(_grid((KIND_SPHERICAL,), [0.7], PARAMS2), PARAMS2, BALL2)
    with pytest.raises(ValueError, match="2/\\(3DG\\)"):
        ExpertBank.build(_grid((KIND_CONST,), [0.0], PARAMS2), PARAMS2, BALL2)
    # An unknown kind has no surrogate constants, so no grid can hold it.
    with pytest.raises(ValueError):
        surrogates.expert_constants(("q",), [0.1], 1.0, 1.0)


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
    bank = ExpertBank.build(_grid((KIND_QUADRATIC,), [1.0 / 5.0], params), params, ball)
    play = np.zeros(5)
    for t in range(100):
        g = rng.normal(size=5)
        g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
        bank = bank.step(play, g)
        play = sample_point(ball, rng)
    assert bank.round - 1 == 100
    assert np.max(np.abs(bank.sigma_inv[0] - np.linalg.inv(bank.sigma[0]))) <= 1e-8


def test_refactor_cadence_resets_drift():
    rng = np.random.default_rng(5)
    params = ProblemParams(horizon=1024, dim=2, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(2), radius=0.5)
    bank = ExpertBank.build(_grid((KIND_QUADRATIC,), [0.2], params), params, ball)
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


def _broadcast_sherman_morrison(A_inv, v):
    # The reference update: a broadcast outer product, each step in a fresh array.
    Av = (A_inv @ v[..., None])[..., 0]
    return A_inv - Av[..., :, None] * Av[..., None, :] / (1.0 + rowdot(v, Av))[..., None, None]


def _broadcast_metric_update(sigma, sigma_inv, updates, G):
    sigma = sigma + G[..., :, None] * G[..., None, :]
    if (updates + 1) % REFACTOR_EVERY == 0:
        return sigma, np.linalg.inv(sigma)
    return sigma, _broadcast_sherman_morrison(sigma_inv, G)


def _bits(a):
    # Bit patterns, so that +0.0 and -0.0 differ (np.array_equal takes them as equal).
    return np.ascontiguousarray(a).view(np.int64)


def test_metric_update_repeats_the_broadcast_formulas_bit_for_bit():
    # Seeded dense SPD Sigma and Sigma^{-1}, drawn apart and scaled by s^2 and
    # 1/s^2 as the metric of gradients of size s is, and gradients of size s
    # from 1e-100 to 1e100, on Sherman-Morrison and refactor rounds, with d on
    # both sides of EINSUM_MIN_DIM: the products and the in-place division and
    # subtraction give the reference's bits, with no warning.
    rng = np.random.default_rng(21)

    def spd(L, d):
        A = rng.normal(size=(L, d, d))
        return A @ np.swapaxes(A, -1, -2) / d + np.eye(d)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1, 2, 10, 50, 200):
            for L in (1, 6):
                for s in (1e-100, 1e-30, 1.0, 1e30, 1e100):
                    sigma, sigma_inv = s**2 * spd(L, d), spd(L, d) / s**2
                    G = s * rng.normal(size=(L, d))
                    assert np.array_equal(_bits(sherman_morrison_update(sigma_inv, G)),
                                          _bits(_broadcast_sherman_morrison(sigma_inv, G)))
                    for updates in (0, REFACTOR_EVERY - 2, REFACTOR_EVERY - 1):
                        new = newton_metric_update(sigma, sigma_inv, updates, G)
                        ref = _broadcast_metric_update(sigma, sigma_inv, updates, G)
                        for a, b in zip(new, ref):
                            assert np.array_equal(_bits(a), _bits(b))


def test_metric_update_signed_zero_rule():
    # From d = EINSUM_MIN_DIM up, einsum adds each product to +0.0, so a product
    # that is exactly zero comes out +0.0 where the broadcast multiply gives
    # -0.0 (here -5 * 0). Below it the products are broadcast.
    d = EINSUM_MIN_DIM
    g = np.zeros(d)
    g[0] = -5.0
    sigma, sigma_inv = newton_metric(newton_beta(1.0, 1.0, 1.0), 1.0, d)
    # Sigma never holds -0.0: Sigma_0's off-diagonals are +0.0, and +0.0 + -0.0
    # = +0.0. Nor does Sigma^{-1} between refactors. So both agree in every bit.
    for updates in range(3):
        new = newton_metric_update(sigma, sigma_inv, updates, g)
        ref = _broadcast_metric_update(sigma, sigma_inv, updates, g)
        for a, b in zip(new, ref):
            assert np.array_equal(_bits(a), _bits(b))
        sigma, sigma_inv = new
    assert not np.signbit(sigma).any() and not np.signbit(sigma_inv).any()
    # Only a -0.0 that a refactor's inv put into Sigma^{-1} tells them apart:
    # Av = A_inv g is +0.0 past its first entry, the products Av_0 Av_j are
    # -0.0 in the reference, and -0.0 - (-0.0) = +0.0 but -0.0 - (+0.0) = -0.0.
    # The values are equal.
    A_inv = np.diag(np.arange(1.0, d + 1.0))
    A_inv[A_inv == 0.0] = -0.0
    new, ref = sherman_morrison_update(A_inv, g), _broadcast_sherman_morrison(A_inv, g)
    assert np.array_equal(new, ref)
    differ = np.zeros((d, d), dtype=bool)
    differ[0, 1:] = differ[1:, 0] = True
    assert np.array_equal(_bits(new) != _bits(ref), differ)
    assert np.signbit(new[0, 1]) and not np.signbit(ref[0, 1])
    # Below EINSUM_MIN_DIM every bit is the reference's, zeros' signs included.
    small = slice(0, EINSUM_MIN_DIM - 1)
    assert np.array_equal(_bits(sherman_morrison_update(A_inv[small, small], g[small])),
                          _bits(_broadcast_sherman_morrison(A_inv[small, small], g[small])))


def test_newton_metric_inverse_drift_is_bounded_and_reset_by_the_refactor():
    # Newton metrics I/(beta D)^2 + sum g g^T with G and D log-uniform in
    # [1e-4, 1e4] and gradient norms up to G, 6 rows. The drift max|S^-1 S - I|
    # after the 511th Sherman-Morrison update measured at most 5.2e-15 = 23.5 eps
    # (d = 50), and after the 512th update, a dense inverse, at most 1.4e-15;
    # the bounds below leave a margin of about 2.5x.
    rng = np.random.default_rng(22)
    eps = np.finfo(float).eps
    for d in (1, 2, 10, 50):
        for _ in range(6):
            G, D = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
            sigma, sigma_inv = newton_metric(newton_beta(G, D, 1.0), D, d)
            sigma, sigma_inv = np.repeat(sigma[None], 6, axis=0), np.repeat(sigma_inv[None], 6, axis=0)
            for updates in range(REFACTOR_EVERY):
                g = rng.normal(size=(6, d))
                g *= G * rng.uniform(size=(6, 1)) / np.linalg.norm(g, axis=1, keepdims=True)
                sigma, sigma_inv = newton_metric_update(sigma, sigma_inv, updates, g)
                if updates == REFACTOR_EVERY - 2:
                    before = np.abs(sigma_inv @ sigma - np.eye(d)).max()
            after = np.abs(sigma_inv @ sigma - np.eye(d)).max()
            assert before <= 64 * eps
            assert after <= 16 * eps and after < before


def test_projections_of_newton_targets_are_idempotent_bitwise():
    # G and D log-uniform in [1e-4, 1e4]: a ball of diameter D with a seeded
    # center, the ONS metric of gradients up to G, and its Newton targets from
    # points of the ball, plus points just outside and far outside it.
    # Projecting a projection returns it bit for bit, Euclidean or weighted.
    rng = np.random.default_rng(23)
    for d in (1, 2, 10, 50):
        for _ in range(8):
            G, D = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
            r = D / 2.0
            u = rng.normal(size=d)
            ball = Ball(center=r * rng.uniform() * u / np.linalg.norm(u), radius=r)
            beta = newton_beta(G, D, 1.0)
            sigma, sigma_inv = newton_metric(beta, D, d)
            targets = []
            for updates in range(8):
                g = rng.normal(size=d)
                g *= G * rng.uniform() / np.linalg.norm(g)
                sigma, sigma_inv = newton_metric_update(sigma, sigma_inv, updates, g)
                x = sample_point(ball, rng)
                targets.append(x - (1.0 / beta) * (sigma_inv @ g))
            for reach in (1.0 + 1e-12, 3.0, 1e6):
                v = rng.normal(size=d)
                targets.append(ball.center + reach * r * v / np.linalg.norm(v))
            Y = np.array(targets)
            P = ball.project(Y)
            assert np.array_equal(_bits(ball.project(P)), _bits(P))
            for y in Y:
                p = ball.project(y)
                assert np.array_equal(_bits(ball.project(p)), _bits(p))
                w = ball.project_weighted(sigma, y)
                assert np.array_equal(_bits(ball.project_weighted(sigma, w)), _bits(w))


def test_expert_iterates_stay_feasible():
    rng = np.random.default_rng(6)
    params = ProblemParams(horizon=64, dim=3, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(3), radius=0.5)
    grid = _grid((KIND_CONST, KIND_SPHERICAL, KIND_QUADRATIC), [1.0 / 16.0, 0.2, 0.2], params)
    bank = ExpertBank.build(grid, params, ball)
    for t in range(64):
        g = rng.normal(size=3)
        g /= max(np.linalg.norm(g), 1.0)
        play = sample_point(ball, rng)
        bank = bank.step(play, g)
        for x in bank.points:
            assert ball.contains(x)


def test_expert_values_match_scalar_surrogates():
    rng = np.random.default_rng(10)
    T, d, G, D = 6, 3, 2.0, 1.0
    params = ProblemParams(horizon=64, dim=d, grad_bound=G, diameter=D)
    ball = Ball(center=np.zeros(d), radius=0.5)
    grid = build_grid(params)
    scalar = {KIND_CONST: surrogates.c_value, KIND_SPHERICAL: surrogates.s_value,
              KIND_QUADRATIC: surrogates.ell_value}
    plays, grads = _random_history(rng, T, d, G=G)
    points = np.array([[sample_point(ball, rng) for _ in range(grid.size)] for _ in range(T)])
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
        ons = ONSLearner(replace(params, exp_concavity=float(10.0 ** rng.uniform(-3.0, 0.0))), ball)
        for learner in ensembles:
            ell = [e for e, kind in enumerate(learner.grid.kinds) if kind == KIND_QUADRATIC]
            np.testing.assert_array_equal(learner.bank.layout.rows[2], ell)
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


def test_learners_prove_their_newton_metrics_spd_without_factorizing(tmp_path, monkeypatch):
    # Sigma_0 = I / (beta D)^2 dominates the rank-one updates, so every
    # weighted projection of maler, metagrad and ONS takes the diagonal
    # dominance test of core._check_spd and no Cholesky factorization.
    checks, factored = [], []
    real_check, real_cholesky = core._check_spd, np.linalg.cholesky
    monkeypatch.setattr(core, "_check_spd", lambda H, d: checks.append(d) or real_check(H, d))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(1) or real_cholesky(a))
    data = tmp_path / "train.libsvm"
    gen_classification_file(data, examples=150, dim=4, seed=3)
    for task in (gen_regression(rounds=40, dim=6, batch=20, seed=5),
                 load_classification(data, rounds=40, batch=20, seed=5)):
        for algo in ("maler", "metagrad", "ons"):
            before = len(checks)
            learner = make_learner(algo, task.params, task.dset)
            run_stream(learner, task.losses)
            assert len(checks) >= before + 40, algo  # one per round at least
    assert not factored


def _random_history(rng, T, d, G=1.0, radius=0.5):
    plays = np.array([sample_point(Ball(center=np.zeros(d), radius=radius), rng) for _ in range(T)])
    grads = rng.normal(size=(T, d))
    grads *= (G * rng.uniform(0.05, 1.0, size=(T, 1))) / np.linalg.norm(grads, axis=1, keepdims=True)
    return plays, grads


def _summed(kind, plays, grads, eta, G, D):
    """summed_surrogate of one expert, with its column of expert_constants and the
    history's SurrogateSums."""
    pad, sph, quad = surrogates.expert_constants((kind,), [eta], G, D)[:, 0]
    return summed_surrogate(eta, pad, sph, quad, SurrogateSums.of(plays, grads))


def _summed_reference(kind, plays, grads, eta, G, D):
    """The per-kind sums summed_surrogate replaced, as (q, r, iso, M)."""
    rounds = plays.shape[0]
    xg = np.einsum("td,td->t", plays, grads)
    sum_g = grads.sum(axis=0)
    if kind == KIND_CONST:
        return eta * sum_g, -eta * float(xg.sum()) + rounds * (eta * G * D) ** 2, 0.0, None
    if kind == KIND_SPHERICAL:
        return (eta * sum_g - 2.0 * eta**2 * G**2 * plays.sum(axis=0),
                -eta * float(xg.sum()) + eta**2 * G**2 * float(np.einsum("td,td->", plays, plays)),
                eta**2 * G**2 * rounds, None)
    return (eta * sum_g - 2.0 * eta**2 * (xg @ grads),
            -eta * float(xg.sum()) + eta**2 * float(xg @ xg), 0.0,
            eta**2 * np.einsum("ti,tj->ij", grads, grads))


def test_summed_surrogate_matches_the_per_kind_reference_bit_for_bit():
    rng = np.random.default_rng(29)
    for case in range(1000):
        G, D = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=2))
        d = int(rng.integers(2, 9))
        T = int(rng.integers(1, d)) if case % 2 else int(rng.integers(d + 1, 40))
        plays, grads = _random_history(rng, T, d, G=G, radius=D / 2)
        for kind in (KIND_CONST, KIND_SPHERICAL, KIND_QUADRATIC):
            eta = float(rng.uniform(0.01, 1.0)) * surrogates.eta_cap(G, D)
            obj = _summed(kind, plays, grads, eta, G, D)
            q, r, iso, M = _summed_reference(kind, plays, grads, eta, G, D)
            assert np.array_equal(obj.q, q) and obj.r == r and obj.iso == iso
            assert (obj.M is None) if M is None else np.array_equal(obj.M, M)


def test_summed_surrogate_matches_per_round_sum():
    from maler import experts, surrogates

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
        obj = _summed(kind, plays, grads, eta, G, D)
        direct = sum(
            fn(SurrogateContext(play=plays[t], grad=grads[t], eta=eta, G=G, D=D), u)
            for t in range(T)
        )
        assert obj.value(u) == pytest.approx(direct, abs=1e-9)


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
        obj = _summed(kind, plays, grads, eta, 1.0, 1.0)
        u = obj.minimize(ball)
        assert ball.contains(u)
        assert obj.value(u) <= float(quadratic_values(obj, pts).min()) + 1e-6


def test_expert_regret_bound_values():
    assert regret_caps(16, 2)[KIND_SPHERICAL][1] == pytest.approx(1.0 + math.log(16.0))
    assert regret_caps(16, 2)[KIND_QUADRATIC][1] == pytest.approx(20.0 * math.log(16.0))
    assert regret_caps(16, 2)[KIND_CONST][1] == 0.75


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
