import math

import numpy as np
import pytest

from conftest import fd_matches

from maler.core import Ball, ProblemParams, Quadratic
from maler.harness import certify_trace
from maler.meta import RunTrace
from maler.universal import AssumptionViolation, MalerLearner


def test_problem_params_validation():
    ProblemParams(horizon=1, dim=1, grad_bound=0.5, diameter=2.0)
    with pytest.raises(ValueError):
        ProblemParams(horizon=0, dim=1, grad_bound=1.0, diameter=1.0)
    with pytest.raises(ValueError):
        ProblemParams(horizon=1, dim=0, grad_bound=1.0, diameter=1.0)
    with pytest.raises(ValueError):
        ProblemParams(horizon=1, dim=1, grad_bound=0.0, diameter=1.0)
    with pytest.raises(ValueError):
        ProblemParams(horizon=1, dim=1, grad_bound=1.0, diameter=-1.0)
    with pytest.raises(ValueError):
        ProblemParams(horizon=1, dim=1, grad_bound=float("inf"), diameter=1.0)
    for bad in ({"horizon": 6.5}, {"dim": 2.0}, {"horizon": True}, {"dim": "3"}):
        with pytest.raises(ValueError):
            ProblemParams(**{"horizon": 6, "dim": 2, "grad_bound": 1.0, "diameter": 1.0, **bad})
    ProblemParams(horizon=np.int64(6), dim=np.int32(2), grad_bound=1.0, diameter=1.0)


def test_sets_must_contain_origin():
    with pytest.raises(ValueError):
        Ball(center=np.array([3.0, 0.0]), radius=1.0)
    Ball(center=np.array([0.5, 0.0]), radius=0.5)


def test_ball_membership_and_projection():
    ball = Ball(center=np.zeros(2), radius=1.0)
    assert ball.contains([0.8, 0.8]) is False
    assert ball.contains([1.0, 0.0])
    assert ball.contains([1.0 + 5e-13, 0.0])
    assert not ball.contains([1.0 + 1e-10, 0.0])
    np.testing.assert_allclose(ball.project([2.0, 0.0]), [1.0, 0.0])
    inside = np.array([0.2, -0.3])
    np.testing.assert_array_equal(ball.project(inside), inside)


def test_projection_of_a_stack_matches_each_row_bit_for_bit():
    # Rows inside, far outside, exactly on the sphere and one ulp past it.
    rng = np.random.default_rng(17)
    for d in (1, 3, 7):
        for center in (np.zeros(d), rng.normal(size=d) * 0.1):
            ball = Ball(center=center, radius=0.75)
            on = list(center + 0.75 * np.eye(d)) if not center.any() else []
            past = []
            for u in rng.normal(size=(8, d)):
                x = center + 0.75 * u / np.linalg.norm(u)
                k = int(np.argmax(np.abs(x - center)))
                outward = np.copysign(np.inf, x[k] - center[k])
                while math.sqrt((x - center) @ (x - center)) <= 0.75:
                    x[k] = np.nextafter(x[k], outward)
                past.append(x)
            Y = np.array(on + past + list(center + rng.normal(scale=0.3, size=(10, d)))
                         + list(center + rng.normal(scale=3.0, size=(10, d))))
            P = ball.project(Y)
            assert P.shape == Y.shape
            for y, p in zip(Y, P):
                assert np.array_equal(p, ball.project(y))
                assert ball.contains(p, tol=0.0)
            for y in on:
                assert math.sqrt((y - center) @ (y - center)) == 0.75
                assert np.array_equal(ball.project(y), y)
            assert not any(ball.contains(y, tol=0.0) for y in past)
    assert ball.project(np.zeros((0, 7))).shape == (0, 7)
    with pytest.raises(ValueError):
        ball.project(np.zeros((2, 3, 7)))


def test_projection_refuses_non_finite_points():
    ball = Ball(center=np.zeros(2), radius=1.0)
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, np.inf], [np.nan, np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            ball.project(bad)
        with pytest.raises(ValueError, match="non-finite"):
            ball.project(np.array([[0.1, 0.2], bad, [3.0, 0.0]]))


def test_projection_idempotent_bitwise():
    rng = np.random.default_rng(7)
    ball = Ball(center=np.array([0.1, -0.2, 0.0]), radius=0.8)
    for _ in range(200):
        y = rng.normal(scale=3.0, size=3)
        p = ball.project(y)
        q = ball.project(p)
        assert np.array_equal(p, q)
        assert ball.contains(p, tol=1e-9)


def test_projection_nonexpansive():
    rng = np.random.default_rng(8)
    ball = Ball(center=np.zeros(4), radius=1.3)
    for _ in range(200):
        a = rng.normal(scale=2.0, size=4)
        b = rng.normal(scale=2.0, size=4)
        pa, pb = ball.project(a), ball.project(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_weighted_projection_identity_matches_euclidean():
    rng = np.random.default_rng(9)
    ball = Ball(center=np.array([0.2, 0.0, -0.1]), radius=0.9)
    for _ in range(50):
        y = rng.normal(scale=2.0, size=3)
        w = ball.project_weighted(np.eye(3), y)
        e = ball.project(y)
        assert np.linalg.norm(w - e) <= 1e-9


def test_weighted_projection_example():
    # min 4(x1-2)^2 + x2^2 over the unit disk has its optimum at (1, 0).
    ball = Ball(center=np.zeros(2), radius=1.0)
    H = np.diag([4.0, 1.0])
    x = ball.project_weighted(H, np.array([2.0, 0.0]))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)


def test_weighted_projection_against_grid_search():
    # Dense grid over the unit circle as an independent optimality oracle.
    rng = np.random.default_rng(10)
    ball = Ball(center=np.zeros(2), radius=1.0)
    xs = np.linspace(-1.0, 1.0, 2001)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[np.einsum("nd,nd->n", pts, pts) <= 1.0]
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        H = A.T @ A + 0.1 * np.eye(2)
        y = rng.normal(scale=2.5, size=2)
        if ball.contains(y):
            continue
        x = ball.project_weighted(H, y)
        d = pts - y
        objs = np.einsum("nd,nd->n", d @ H, d)
        dx = x - y
        obj_x = float(dx @ H @ dx)
        assert obj_x <= float(objs.min()) + 1e-5


def test_weighted_projection_properties():
    rng = np.random.default_rng(11)
    ball = Ball(center=np.array([0.05, -0.1, 0.0, 0.2]), radius=0.7)
    for _ in range(30):
        A = rng.normal(size=(4, 4))
        H = A.T @ A + 0.05 * np.eye(4)
        y = rng.normal(scale=2.0, size=4)
        x = ball.project_weighted(H, y)
        if ball.contains(y):
            assert np.array_equal(x, y)
            continue
        assert abs(np.linalg.norm(x - ball.center) - ball.radius) <= 1e-9
        # Inside with no tolerance, so projecting again is a no-op bit for bit.
        assert ball.contains(x, tol=0.0)
        assert np.array_equal(ball.project_weighted(H, x), x)
        # Optimality against random feasible points.
        samples = np.array([ball.sample(rng) for _ in range(300)])
        d = samples - y
        objs = np.einsum("nd,nd->n", d @ H, d)
        dx = x - y
        assert float(dx @ H @ dx) <= float(objs.min()) + 1e-9


def test_weighted_projection_rejects_bad_weights():
    ball = Ball(center=np.zeros(2), radius=1.0)
    with pytest.raises(ValueError):
        ball.project_weighted(np.array([[1.0, 0.0], [0.5, 1.0]]), [2.0, 0.0])
    with pytest.raises(ValueError):
        ball.project_weighted(np.array([[1.0, 0.0], [0.0, -2.0]]), [2.0, 0.0])
    with pytest.raises(ValueError):
        ball.project_weighted(np.zeros((2, 2)), [2.0, 0.0])
    # Asymmetry is accepted up to 1e-8 times the largest entry (here 4), and not past it.
    for y in ([2.0, 0.0], [0.1, 0.0]):
        tol = 1e-8 * 4.0
        ball.project_weighted(np.array([[4.0, 0.0], [tol, 4.0]]), y)
        with pytest.raises(ValueError, match="symmetric"):
            ball.project_weighted(np.array([[4.0, 0.0], [np.nextafter(tol, 1.0), 4.0]]), y)
        for bad in (np.nan, np.inf, -np.inf):
            for H in (np.array([[bad, 0.0], [0.0, 1.0]]), np.array([[1.0, bad], [bad, 1.0]])):
                with pytest.raises(ValueError, match="non-finite"):
                    ball.project_weighted(H, y)


def test_sample_stays_inside():
    rng = np.random.default_rng(12)
    ball = Ball(center=np.array([0.1, 0.0]), radius=0.6)
    for _ in range(500):
        assert ball.contains(ball.sample(rng))


def _trace(plays, grads, params, ball):
    return RunTrace(algo="test", params=params, dset=ball,
                    plays=np.asarray(plays, dtype=float), grads=np.asarray(grads, dtype=float))


def _assumption_rows(trace):
    reports, ok = certify_trace(trace)
    assert reports[0].name == "assumptions"
    return {r.label: r for r in reports[0].rows}, ok


def test_gradient_sample_validation():
    params = ProblemParams(horizon=2, dim=2, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(2), radius=0.5)
    learner = MalerLearner(params, ball)
    learner.predict()
    with pytest.raises(ValueError):
        learner.observe(np.ones(3))
    with pytest.raises(AssumptionViolation):
        learner.observe(np.array([float("nan"), 0.0]))
    rows, ok = _assumption_rows(_trace([[0.0, 0.0]], [[float("nan"), 0.0]], params, ball))
    assert not ok
    assert not rows["gradients finite"].ok
    assert rows["gradients finite"].measured == 1.0


def test_validate_assumptions():
    params = ProblemParams(horizon=10, dim=2, grad_bound=1.0, diameter=1.0)
    ball = Ball(center=np.zeros(2), radius=0.5)
    plays = [[0.1, 0.0]] * 5
    good = [[0.5, 0.5]] * 5
    rows, _ = _assumption_rows(_trace(plays, good, params, ball))
    assert all(r.ok for r in rows.values())
    assert rows["max ||g_t|| <= G"].measured == pytest.approx(np.sqrt(0.5))
    assert rows["max play distance past the radius"].measured == pytest.approx(-0.4)

    bad = good + [[2.0, 0.0]]
    rows, ok = _assumption_rows(_trace(plays + [[0.0, 0.0]], bad, params, ball))
    assert not ok and not rows["max ||g_t|| <= G"].ok
    # The tolerance on G is relative 1e-9, the same one observe applies.
    edge = good + [[params.grad_cap, 0.0]]
    rows, _ = _assumption_rows(_trace(plays + [[0.0, 0.0]], edge, params, ball))
    assert rows["max ||g_t|| <= G"].ok

    outside = plays + [[0.5 + 1e-6, 0.0]]
    rows, ok = _assumption_rows(_trace(outside, good + [[0.5, 0.5]], params, ball))
    assert not ok and not rows["max play distance past the radius"].ok

    mismatched = ProblemParams(horizon=10, dim=2, grad_bound=1.0, diameter=2.0)
    rows, ok = _assumption_rows(_trace(plays, good, mismatched, ball))
    assert not ok and not rows["set diameter matches D"].ok


def _random_quadratic(rng, d, kind):
    q = rng.normal(size=d)
    if kind == "linear":
        return Quadratic(q, r=0.3)
    if kind == "isotropic":
        return Quadratic(q, r=-0.1, iso=0.7)
    A = rng.normal(size=(d, d))
    if kind == "singular":
        A[:, 0] = 0.0
        return Quadratic(q, M=A @ A.T)
    return Quadratic(q, r=0.2, iso=0.05, M=A @ A.T)


def test_quadratic_value_gradient_and_sum():
    rng = np.random.default_rng(13)
    d = 3
    quads = [_random_quadratic(rng, d, k) for k in ("linear", "isotropic", "singular", "full")]
    U = rng.normal(size=(4, d))
    for f in quads:
        for u in U:
            assert fd_matches(f.value, f.gradient, u)
        np.testing.assert_allclose(f.values(U), [f.value(u) for u in U], atol=1e-12)
    total = quads[0] + quads[1] + quads[2] + quads[3]
    for u in U:
        assert total.value(u) == pytest.approx(sum(f.value(u) for f in quads), abs=1e-12)
        np.testing.assert_allclose(total.gradient(u), sum(f.gradient(u) for f in quads),
                                   atol=1e-12)


def test_quadratic_minimize_against_grid_search():
    # Every minimize path (boundary point, projection, weighted projection of
    # the unconstrained minimizer both inside and outside, and the PGD
    # fallback for singular M) against a dense grid over the disk.
    rng = np.random.default_rng(14)
    ball = Ball(center=np.array([0.1, -0.05]), radius=0.5)
    xs = np.linspace(-0.5, 0.5, 1001)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = ball.center + np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts - ball.center, axis=1) <= 0.5]
    inside = Quadratic(np.array([-0.1, 0.05]), M=np.diag([2.0, 1.0]))
    cases = [inside] + [_random_quadratic(rng, 2, k)
                        for k in ("linear", "isotropic", "singular", "full") for _ in range(3)]
    for f in cases:
        u = f.minimize(ball)
        assert ball.contains(u, tol=1e-12)
        assert f.value(u) <= float(f.values(pts).min()) + 1e-9
    np.testing.assert_allclose(inside.minimize(ball), [0.025, -0.025], atol=1e-15)


def test_linear_minimizer_lies_inside_the_ball_with_no_tolerance():
    rng = np.random.default_rng(18)
    for _ in range(2000):
        d = int(rng.integers(1, 8))
        r = 10.0 ** rng.uniform(-3.0, 3.0)
        unit = rng.normal(size=d)
        ball = Ball(center=r * rng.uniform() * unit / np.linalg.norm(unit), radius=r)
        f = Quadratic(rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0))
        u = f.minimize(ball)
        assert ball.contains(u, tol=0.0)
        assert np.array_equal(ball.project(u), u)
        unshaved = ball.center - r * f.q / np.linalg.norm(f.q)
        assert np.max(np.abs(u - unshaved)) <= 8 * np.finfo(float).eps * r


def test_quadratic_minimize_is_exact_on_the_boundary():
    # With f = (u - v)^T H (u - v) for v outside the ball, the minimizer lies
    # on the sphere with the gradient pointing straight inwards (KKT).
    # project_weighted(H, v) solves the same problem and must agree: bit for
    # bit on minimize's own target x_hat = H^{-1} (H v), to the rounding of
    # that solve on v itself, and inside the ball with no tolerance.
    rng = np.random.default_rng(15)
    ball = Ball(center=np.zeros(4), radius=0.5)
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        H = A @ A.T + 0.1 * np.eye(4)
        v = rng.normal(size=4) * 3.0
        f = Quadratic(-2.0 * H @ v, r=float(v @ H @ v), M=H)
        u = f.minimize(ball)
        w = ball.project_weighted(H, v)
        assert np.array_equal(u, ball.project_weighted(H, np.linalg.solve(H, -0.5 * f.q)))
        # v and x_hat differ by the rounding of the solve, at cond(H) < 200 here.
        assert np.max(np.abs(u - w)) <= 1e-13
        for x in (u, w):
            assert ball.contains(x, tol=0.0)
            assert abs(np.linalg.norm(x) - 0.5) <= 1e-14
            g = f.gradient(x)
            along = float(g @ x) / float(x @ x)
            assert along < 0.0
            assert np.linalg.norm(g - along * x) <= 1e-9 * np.linalg.norm(g)


def _bisection_reference(ball, H, y):
    """Bisection on the multiplier down to adjacent floats, in H's eigenbasis.

    The feasible end is kept, and Ball.project settles the last ulps, so the
    reference is a feasible point within rounding of the minimizer.
    """
    lam, V = np.linalg.eigh(H)
    a = lam * (V.T @ (y - ball.center))
    lo, hi = 0.0, float(np.linalg.norm(a)) / ball.radius  # ||a / (lam + hi)|| < r
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.linalg.norm(a / (lam + mid)) > ball.radius:
            lo = mid
        else:
            hi = mid
    return ball.project(ball.center + V @ (a / (lam + hi)))


def test_weighted_projection_is_exact_on_wide_scales():
    # SPD weights with condition numbers 1 to 1e12 at scales 1e-4 to 1e4, radii
    # and centers 1e-4 to 1e4, targets just outside the ball and far away.
    # Every case must converge to a point inside the ball with no tolerance
    # that projects to itself and scores no worse than the bisection reference
    # beyond a few ulps of the point; H = s I must reproduce Ball.project.
    rng = np.random.default_rng(16)
    eps = np.finfo(float).eps
    for d in (1, 3, 8):
        for cond in (1.0, 1e3, 1e6, 1e12):
            for _ in range(6):
                r = 10.0 ** rng.uniform(-4.0, 4.0)
                unit = rng.normal(size=d)
                center = r * rng.uniform() * unit / np.linalg.norm(unit)
                ball = Ball(center=center, radius=r)
                Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
                lam = 10.0 ** rng.uniform(-4.0, 4.0) * cond ** -np.linspace(0.0, 1.0, d)
                H = (Q * lam) @ Q.T
                H = 0.5 * (H + H.T)
                s = float(lam[0])
                for reach in (1.0 + 1e-12, 3.0, 1e6):
                    u = rng.normal(size=d)
                    y = center + reach * r * u / np.linalg.norm(u)
                    assert not ball.contains(y, tol=0.0)
                    for W in (H, s * np.eye(d)):
                        x = ball.project_weighted(W, y)
                        assert ball.contains(x, tol=0.0)
                        assert np.array_equal(ball.project_weighted(W, x), x)
                        ref = _bisection_reference(ball, W, y)
                        # obj(x) - obj(ref) = (x - ref)^T W (x + ref - 2y), free of the
                        # cancellation between two rounded objectives; a point a few ulps
                        # of the ball from the minimizer loses at most that times |grad|.
                        gain = float((x - ref) @ (W @ (x - y) + W @ (ref - y)))
                        size = float(np.linalg.norm(center)) + r
                        assert gain <= 32 * eps * size * float(np.linalg.norm(W @ (ref - y)))
                    # The last x is the one for H = s I.
                    assert np.max(np.abs(x - ball.project(y))) <= 4 * eps * size
