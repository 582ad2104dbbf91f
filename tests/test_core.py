import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import fd_matches, quadratic_values, reference_check_spd, sample_point

from maler import core

from maler.core import PGD_ITERS, PGD_TOL, Ball, ProblemParams, Quadratic, projected_gradient
from maler.harness import certify_trace
from maler.meta import RunTrace
from maler.universal import AssumptionViolation, MalerLearner, make_learner


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
    for bad in ({"horizon": 6.5}, {"dim": 2.0}, {"horizon": True}, {"dim": "3"},
                {"dim": 10**400}, {"grad_bound": 10**400}, {"diameter": -(10**400)}):
        with pytest.raises(ValueError):
            ProblemParams(**{"horizon": 6, "dim": 2, "grad_bound": 1.0, "diameter": 1.0, **bad})
    ProblemParams(horizon=np.int64(6), dim=np.int32(2), grad_bound=1.0, diameter=1.0)
    # The learners divide by D^2 and 4 G D, so neither may overflow or underflow.
    for G, D, reason in ((1.0, 1e-300, "D^2 = 0"), (1.0, 1e160, "D^2 = inf"),
                         (1e300, 1e10, "4 G D = inf"), (1e-200, 1e-150, "4 G D = 0")):
        with pytest.raises(ValueError, match=r"diameter .* out of range.*" + re.escape(reason)):
            ProblemParams(horizon=2, dim=1, grad_bound=G, diameter=D)
    # The surrogates and certificates square G and the top rate 1/(5 D G).
    for G, D, reason in ((1e300, 1e-150, "G^2 = inf"), (1e-300, 1.0, "G^2 = 0"),
                         (1e-160, 1e-10, "1/(5 D G) = 2e+169 squared")):
        with pytest.raises(ValueError, match=r"out of range.*" + re.escape(reason)):
            ProblemParams(horizon=2, dim=1, grad_bound=G, diameter=D)


def test_problem_params_refuses_a_diameter_whose_newton_rows_overflow():
    # The ensembles' Newton rows start from I/(beta D)^2 at beta = 25/56: at D = 1e-158
    # that overflows, though D^2, 4 G D, G^2 and the top rate are all in range.
    with pytest.raises(ValueError, match=r"^the online Newton metric I/\(beta D\)\^2 overflows "
                       r"at beta = 0\.446429, D = 1e-158, from diameter 1e-158$"):
        ProblemParams(horizon=4, dim=2, grad_bound=1e4, diameter=1e-158)


def test_every_problem_params_is_one_every_learner_and_certificate_accepts():
    # Log-uniform G and D, and moduli that are None, a refusal edge (5e-324, 1e-310,
    # 1e-200) or log-uniform: ProblemParams refuses a draw with a ValueError naming the
    # field at fault, or every algo whose modulus is present builds on it, every
    # curvature cap is finite and ONS's beta is newton_beta's to the bit.
    rng = np.random.default_rng(30)
    fields = ("grad_bound", "diameter", "sc_modulus", "exp_concavity")
    refused = dict.fromkeys(fields, 0)
    accepted = 0
    for _ in range(3000):
        T, d = int(rng.integers(2, 1000)), int(rng.integers(1, 5))
        G, D = (10.0 ** float(e) for e in rng.uniform(-170.0, 170.0, size=2))
        lam, alpha = ([None, 5e-324, 1e-310, 1e-200, 10.0 ** float(rng.uniform(-330.0, 5.0))]
                      [int(rng.integers(5))] for _ in range(2))
        try:
            params = ProblemParams(horizon=T, dim=d, grad_bound=G, diameter=D,
                                   sc_modulus=lam, exp_concavity=alpha)
        except ValueError as exc:
            named = [name for name in fields if name in str(exc)]
            assert named, str(exc)
            refused[named[0]] += 1
            continue
        accepted += 1
        algos = ["maler", "metagrad", "ogd-convex"] + ["ogd-sc"] * (lam is not None)
        for algo in algos + ["ons"] * (alpha is not None):
            make_learner(algo, params, Ball(center=np.zeros(d), radius=D / 2))
        assert len(params.curvature_caps) == (lam is not None) + (alpha is not None)
        assert all(math.isfinite(cap) for _, cap in params.curvature_caps)
        assert params.ons_beta == (None if alpha is None else core.newton_beta(G, D, alpha))
    assert accepted >= 200 and all(refused.values()), (accepted, refused)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ball_refuses_a_non_finite_center(bad):
    with pytest.raises(ValueError, match="center must be finite"):
        Ball(center=np.array([bad, 0.0]), radius=1.0)


def test_sets_must_contain_origin():
    with pytest.raises(ValueError):
        Ball(center=np.array([3.0, 0.0]), radius=1.0)
    Ball(center=np.array([0.5, 0.0]), radius=0.5)


def test_ball_membership_and_projection():
    ball = Ball(center=np.zeros(2), radius=1.0)
    assert ball.contains([0.8, 0.8]) is False
    assert ball.contains([1.0, 0.0])
    assert not ball.contains([1.0 + 5e-13, 0.0])
    assert not ball.contains([1.0 + 1e-10, 0.0])
    np.testing.assert_allclose(ball.project([2.0, 0.0]), [1.0, 0.0])
    inside = np.array([0.2, -0.3])
    np.testing.assert_array_equal(ball.project(inside), inside)


def test_projection_of_a_stack_matches_each_row_bit_for_bit():
    # Rows inside, far outside, exactly on the sphere and one ulp past it;
    # project_weighted must move the last ones too.
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
                assert ball.contains(p)
            for y in on:
                assert math.sqrt((y - center) @ (y - center)) == 0.75
                assert np.array_equal(ball.project(y), y)
            assert not any(ball.contains(y) for y in past)
            H = np.diag(np.arange(1.0, d + 1.0))
            for y in past:
                x = ball.project_weighted(H, y)
                assert not np.array_equal(x, y) and ball.contains(x)
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


def _project_row_by_row(ball, Y):
    """Ball.project as one loop over the outside rows, each scaled and shaved on its own:
    the reference the stacked scaling must match bit for bit."""
    rows = np.asarray(Y, dtype=float).reshape(-1, ball.dim)
    z = rows - ball.center
    with np.errstate(over="ignore"):
        n = np.sqrt(core.rowdot(z, z))
    out = np.flatnonzero(~(n <= ball.radius))
    if not np.isfinite(rows[out]).all():
        raise ValueError("cannot project a non-finite point")
    p = rows.copy()
    for i in out:
        zi, ni = z[i], n[i]
        if ni == math.inf:
            zi = zi / np.abs(zi).max()
            ni = math.sqrt(zi.dot(zi))
        scale = ball.radius / ni
        for _ in range(100):
            p[i] = ball.center + zi * scale
            w = p[i] - ball.center
            if math.sqrt(w.dot(w)) <= ball.radius:
                break
            scale = np.nextafter(scale, 0.0)
    return p.reshape(np.shape(Y))


def _first_scaled_point_fails(ball, y) -> bool:
    z = y - ball.center
    w = (ball.center + z * (ball.radius / math.sqrt(z.dot(z)))) - ball.center
    return math.sqrt(w.dot(w)) > ball.radius


@pytest.mark.parametrize("d", [10, 50, 200])
def test_stacked_projection_matches_the_row_by_row_loop_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for center, radius in ((np.zeros(d), 0.75), (rng.normal(scale=0.1 / math.sqrt(d), size=d), 3.0)):
        ball = Ball(center=center, radius=radius)
        inside = center + rng.normal(scale=0.2 * radius / math.sqrt(d), size=(6, d))
        past = []  # on the sphere, then moved out by ulps of the largest entry
        for u in rng.normal(size=(6, d)):
            x = center + radius * u / np.linalg.norm(u)
            k = int(np.argmax(np.abs(x - center)))
            while ball.contains(x):
                x[k] = np.nextafter(x[k], np.copysign(np.inf, x[k] - center[k]))
            past.append(x)
        shave, keep = [], []  # far rows whose first scaled point fails contains, or passes
        while len(shave) < 6 or len(keep) < 6:
            y = center + rng.normal(scale=rng.uniform(1.0, 4.0) * radius / math.sqrt(d), size=d)
            if not ball.contains(y):
                (shave if _first_scaled_point_fails(ball, y) else keep).append(y)
        # ||y - c||^2 overflows past ~1.3e154.
        huge = rng.normal(size=(4, d)) * 10.0 ** rng.uniform(160.0, 300.0, size=(4, 1))
        Y = np.concatenate((inside, past, shave[:6], keep[:6], huge))
        for order in (np.arange(len(Y)), rng.permutation(len(Y))):
            P = ball.project(Y[order])
            assert np.array_equal(P, _project_row_by_row(ball, Y[order]))
            assert all(ball.contains(p) for p in P)
        for y in np.concatenate((inside[:1], past[:1], shave[:1], keep[:1], huge[:1])):
            assert np.array_equal(ball.project(y), _project_row_by_row(ball, y))
        assert all(_first_scaled_point_fails(ball, y) for y in shave[:6])
        assert np.array_equal(ball.project(inside), inside)
        for bad in (np.nan, np.inf, -np.inf):
            Z = Y.copy()
            Z[3, d // 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                ball.project(Z)
            with pytest.raises(ValueError, match="non-finite"):
                ball.project(Z[3])


def test_projections_of_a_point_whose_squared_offset_overflows_reach_the_boundary():
    # ||y - c||^2 overflows past ~1.3e154; the direction of y - c does not.
    ball = Ball(center=np.zeros(2), radius=1.0)
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(ball.project([1e200, 0.0]), [1.0, 0.0])
        P = ball.project(np.array([[0.1, 0.2], [1e200, 0.0], [-1e300, 1e300], [3.0, 4.0]]))
        assert np.array_equal(P[:2], [[0.1, 0.2], [1.0, 0.0]])
        np.testing.assert_allclose(P[2], [-math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-15)
        assert ball.contains(P[2])
        assert np.array_equal(P[3], ball.project([3.0, 4.0]))
        assert np.array_equal(ball.project_weighted(np.eye(2), [1e200, 0.0]), [1.0, 0.0])
        # At 1e120 the target is far enough out to give the limit point, and
        # its squared offset does not overflow.
        limit = ball.project_weighted(H, np.array([1.0, -0.3]) * 1e120)
        for scale in (1e160, 1e200, 1e300):
            for W in (H, 1e200 * H):
                x = ball.project_weighted(W, np.array([1.0, -0.3]) * scale)
                assert ball.contains(x)
                np.testing.assert_allclose(x, limit, rtol=1e-14)


def test_weighted_projection_refuses_non_finite_points(monkeypatch):
    def unreachable(self, M, v):
        raise AssertionError("a non-finite target reached the boundary solve")

    monkeypatch.setattr(Ball, "_weighted_boundary_point", unreachable)
    ball = Ball(center=np.array([0.25, 0.0]), radius=1.0)
    for H in (np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])):
        for bad in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, np.inf], [np.nan, np.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                ball.project_weighted(H, bad)


def test_projection_idempotent_bitwise():
    rng = np.random.default_rng(7)
    ball = Ball(center=np.array([0.1, -0.2, 0.0]), radius=0.8)
    for _ in range(200):
        y = rng.normal(scale=3.0, size=3)
        p = ball.project(y)
        q = ball.project(p)
        assert np.array_equal(p, q)
        assert ball.contains(p)


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
        assert ball.contains(x)
        assert np.array_equal(ball.project_weighted(H, x), x)
        # Optimality against random feasible points.
        samples = np.array([sample_point(ball, rng) for _ in range(300)])
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


def test_weighted_projection_checks_the_weights_before_membership():
    # The target is inside the ball, so it would be returned as it is; H is refused first.
    ball = Ball(center=np.zeros(2), radius=1.0)
    y = np.array([0.1, -0.2])
    for H, why in ((np.array([[1.0, 0.0], [0.0, -2.0]]), "positive definite"),
                   (np.zeros((2, 2)), "positive definite"),
                   (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive definite"),
                   (np.array([[4.0, 0.0], [1e-6, 4.0]]), "symmetric"),
                   (np.array([[1.0, 0.0], [0.5, 1.0]]), "symmetric"),
                   (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
                   (np.array([[1.0, np.inf], [np.inf, 1.0]]), "non-finite")):
        with pytest.raises(ValueError, match=why):
            ball.project_weighted(H, y)
    assert np.array_equal(ball.project_weighted(np.eye(2), y), y)


def test_weighted_projection_checks_the_target_before_the_boundary_solve(monkeypatch):
    solved = []

    def boundary(self, M, v):
        solved.append(v)
        return self.center.copy()

    monkeypatch.setattr(Ball, "_weighted_boundary_point", boundary)
    d = 6
    ball = Ball(center=np.full(d, 0.1), radius=1.0)
    H = np.diag(np.arange(1.0, d + 1.0))
    for bad in (np.nan, np.inf, -np.inf):
        y = np.full(d, 0.05)
        y[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ball.project_weighted(H, y)
    assert solved == []
    # ||y - c||^2 overflows, but y is finite: it goes on to the solve.
    y = np.full(d, 1e200)
    ball.project_weighted(H, y)
    assert len(solved) == 1 and solved[0] is y


def _spd_case(rng, kind: str) -> np.ndarray:
    """A seeded matrix of one kind for the SPD-check property test."""
    d = int(rng.integers(1, 61))
    scale = 10.0 ** rng.uniform(-300.0, 300.0)
    if kind == "huge":  # row sums on both sides of the first test's overflow bound
        scale = sys.float_info.max / d**2 * rng.uniform(0.01, 1.0)
    W = rng.standard_normal((d, d))
    if kind == "subnormal":  # small integer multiples of the smallest subnormal
        W = rng.integers(-3, 4, size=(d, d)).astype(float)
        scale = 5e-324
    W = np.triu(W, 1)
    W = (W + W.T) * scale
    off = np.abs(W).sum(axis=1)
    if kind == "gram":
        B = rng.standard_normal((d, int(rng.integers(1, d + 2))))
        return (B @ B.T) * scale
    if kind in ("threshold", "boundary"):
        # Every row a few ulps to one side of the diagonal equal to the
        # off-diagonal sum, or of the test's own threshold S_i = t M_ii,
        # which rounding in S_i blurs by up to about d ulps.
        k = int(rng.integers(-6, 7))
        if kind == "threshold":
            off, k = off / (1.0 - 4.0 * (d + 1) ** 2 * 2.0**-53), k * d
        diag = off * (1.0 + k * 2.0**-53)
    elif kind == "subnormal":
        diag = off + rng.integers(-1, 3, size=d) * 5e-324
    else:
        diag = off * (1.0 + 10.0 ** rng.uniform(-12.0, 1.0, size=d))
    diag = np.where(diag > 0.0, diag, scale)
    M = W + np.diag(diag)
    i, j = rng.integers(0, d, size=2)
    if kind == "indefinite":
        M[i, i] = -M[i, i] if rng.uniform() < 0.5 else 0.0
    elif kind == "nonfinite":
        M[i, j] = rng.choice([math.nan, math.inf, -math.inf])
        if rng.uniform() < 0.5:
            M[j, i] = M[i, j]
    elif kind == "asymmetric" and i != j:
        # Just inside or just outside the 1e-8 max(max |M_ij|, 1) tolerance.
        tol = 1e-8 * max(np.abs(M).max(), 1.0)
        M[i, j] += tol * rng.choice([0.5, 0.999, 1.001, 2.0])
    return M


def _spd_verdict(check, M) -> str:
    try:
        check(M, M.shape[0])
    except ValueError as exc:
        return str(exc)
    return "accepted"


def test_dominance_test_keeps_every_verdict_of_the_cholesky_check(monkeypatch):
    # core._check_spd first accepts an exactly symmetric, strictly diagonally
    # dominant matrix without factorizing it. Every verdict and message must
    # be the Cholesky-only reference's, every matrix that the first test
    # accepts must have a Cholesky factor, and no input may raise a warning.
    factored = []
    real_cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(1) or real_cholesky(a))
    rng = np.random.default_rng(20)
    kinds = ("dominant", "threshold", "boundary", "gram", "indefinite", "nonfinite",
             "asymmetric", "subnormal", "huge")
    first = dict.fromkeys(kinds, 0)
    for n in range(2700):
        kind = kinds[n % len(kinds)]
        with np.errstate(all="ignore"):
            M = _spd_case(rng, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _spd_verdict(reference_check_spd, M)
            before = len(factored)
            got = _spd_verdict(core._check_spd, M)
        assert got == want, (kind, M)
        if got == "accepted" and len(factored) == before:
            real_cholesky(M)
            first[kind] += M.shape[0] > 1
    # Past d = 1 the first test takes the dominant matrices, those on one
    # side of its own threshold, and no boundary, indefinite, non-finite or
    # subnormal one.
    assert first["dominant"] > 250 and 50 < first["threshold"] < 250 and first["huge"] > 20
    assert first["boundary"] + first["indefinite"] + first["nonfinite"] + first["subnormal"] == 0


def test_weighted_projection_factorizes_a_metric_that_is_not_dominant(monkeypatch):
    factored = []
    real_cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(1) or real_cholesky(a))
    ball = Ball(center=np.array([0.1, -0.2, 0.0]), radius=0.5)
    S = np.full((3, 3), 0.9) + 0.1 * np.eye(3)  # eigenvalues 2.8, 0.1, 0.1
    y = np.array([1.5, -0.4, 0.3])
    got = ball.project_weighted(S, y)
    assert len(factored) == 1
    want = ball._weighted_boundary_point(reference_check_spd(S, 3), y)
    assert got.tobytes() == want.tobytes()
    # A dominant metric takes the first test and no factorization.
    ball.project_weighted(S + 2.0 * np.eye(3), y)
    assert len(factored) == 2


def test_dominance_margin_covers_summation_and_cholesky_rounding():
    # Exact rational check of the margin derived in core._check_spd: with
    # t = 2 - 4 (d+1)^2 u as computed there, t (1 + u) / (1 - g_{d-1}) is at
    # most 2 - m, m = d g_{d+1} / (1 - d g_{d+1}), for every d with t > 1.
    u = Fraction(1, 2**53)

    def g(k):
        return k * u / (1 - k * u)

    top = math.isqrt(2**51) - 1  # the largest d with t > 1
    for d in [*range(1, 200), *np.unique(np.geomspace(200, top, 400).astype(int)), top]:
        d = int(d)
        t = Fraction(2.0 - 4.0 * (d + 1) ** 2 * 2.0**-53)
        assert t == 2 - 4 * (d + 1) ** 2 * u and t > 1
        m = d * g(d + 1) / (1 - d * g(d + 1))
        assert 0 < m and t * (1 + u) / (1 - g(d - 1)) <= 2 - m, d
    assert 2.0 - 4.0 * (top + 2) ** 2 * 2.0**-53 <= 1.0


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
        np.testing.assert_allclose(quadratic_values(f, U), [f.value(u) for u in U], atol=1e-12)
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
        assert ball.contains(u)
        assert f.value(u) <= float(quadratic_values(f, pts).min()) + 1e-9
    np.testing.assert_allclose(inside.minimize(ball), [0.025, -0.025], atol=1e-15)


def _minimize_loop_reference(f, ball):
    # Quadratic.minimize's projected-gradient loop before core.projected_gradient.
    H = f.M + f.iso * np.eye(f.dim) if f.iso else f.M
    step = 1.0 / max(2.0 * float(np.linalg.eigvalsh(H)[-1]), 1e-12)
    u = ball.project(np.zeros(f.dim))
    for _ in range(PGD_ITERS):
        nxt = ball.project(u - step * f.gradient(u))
        if float(np.linalg.norm(nxt - u)) <= PGD_TOL:
            return nxt
        u = nxt
    return u


def test_projected_gradient_repeats_the_minimize_loop_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        A = rng.normal(size=(d, int(rng.integers(1, d))))
        f = Quadratic(rng.normal(size=d) * 10.0 ** rng.uniform(-1.0, 1.0), M=A @ A.T)
        lam = np.linalg.eigvalsh(f.M)
        # Singular, so minimize takes the projected-gradient path.
        assert lam[0] <= d * np.finfo(float).eps * lam[-1]
        unit = rng.normal(size=d)
        r = 10.0 ** rng.uniform(-1.0, 1.0)
        ball = Ball(center=r * rng.uniform() * unit / np.linalg.norm(unit), radius=r)
        ref = _minimize_loop_reference(f, ball)
        L = 2.0 * float(lam[-1])
        u, steps, gap = projected_gradient(f, ball, L, ball.project(np.zeros(d)))
        assert np.array_equal(u, ref)
        assert np.array_equal(f.minimize(ball), ref)
        assert steps < PGD_ITERS
        # A last move m <= PGD_TOL puts g(u)^T (u - v) below 2 L m ||u - v|| <= 4 L r m.
        assert gap <= 4.0 * L * r * PGD_TOL * (1.0 + 1e-6) + 1e-15


def test_membership_has_no_tolerance_and_no_overflow_warning():
    ball = Ball(center=np.zeros(2), radius=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ball.contains([1e200, 0.0]) is False
        u = Quadratic(np.array([-1e200, 0.0]), M=np.eye(2)).minimize(ball)
    assert np.array_equal(u, [1.0, 0.0])


def test_linear_minimizer_lies_inside_the_ball_with_no_tolerance():
    rng = np.random.default_rng(18)
    for _ in range(2000):
        d = int(rng.integers(1, 8))
        r = 10.0 ** rng.uniform(-3.0, 3.0)
        unit = rng.normal(size=d)
        ball = Ball(center=r * rng.uniform() * unit / np.linalg.norm(unit), radius=r)
        f = Quadratic(rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0))
        u = f.minimize(ball)
        assert ball.contains(u)
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
            assert ball.contains(x)
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


def _counted_series(monkeypatch):
    """A list that grows by one per np.linalg.inv call made by the series boundary solve."""
    taken, real_inv = [], np.linalg.inv

    def inv(a):
        if sys._getframe(1).f_code.co_name == "_series_boundary_point":
            taken.append(1)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    return taken


def test_weighted_projection_is_exact_on_wide_scales(monkeypatch):
    # SPD weights with condition numbers 1 to 1e12 at scales 1e-4 to 1e4, radii
    # and centers 1e-4 to 1e4, targets just outside the ball and far away; and from
    # the series solve's smallest d up, near-isotropic weights (condition 1.01) with
    # targets at reach up to 1.05, every one of which takes the series solve.
    # Every case must converge to a point inside the ball with no tolerance
    # that projects to itself and scores no worse than the bisection reference
    # beyond a few ulps of the point; H = s I must reproduce Ball.project.
    taken = _counted_series(monkeypatch)
    rng = np.random.default_rng(16)
    eps = np.finfo(float).eps
    cases = [(d, cond, (1.0 + 1e-12, 3.0, 1e6)) for d in (1, 3, 8) for cond in (1.0, 1e3, 1e6, 1e12)]
    cases += [(d, 1.01, (1.0 + 1e-12, 1.001, 1.05)) for d in (core.SERIES_MIN_DIM, 50)]
    for d, cond, reaches in cases:
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
            for reach in reaches:
                u = rng.normal(size=d)
                y = center + reach * r * u / np.linalg.norm(u)
                assert not ball.contains(y)
                for W in (H, s * np.eye(d)):
                    before = len(taken)
                    x = ball.project_weighted(W, y)
                    assert len(taken) == before + (d >= core.SERIES_MIN_DIM)
                    assert ball.contains(x)
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


@pytest.mark.parametrize("case", ["below-crossover", "not-dominant", "far-target",
                                  "inverse-overflows"])
def test_weighted_projection_falls_back_to_eigh_bit_for_bit(monkeypatch, case):
    # Where the series solve does not apply, or its inverse is not finite, the point is
    # the eigh solve's to the bit.
    taken = _counted_series(monkeypatch)
    d = core.SERIES_MIN_DIM - (case == "below-crossover")
    rng = np.random.default_rng(7)
    r = 0.5
    ball = Ball(center=np.full(d, 0.01 * r / d), radius=r)
    u = rng.normal(size=d)
    y = ball.center + (3.0 if case == "far-target" else 1.001) * r * u / np.linalg.norm(u)
    H = {"not-dominant": np.eye(d) + np.full((d, d), 0.9),  # SPD, rows far from dominant
         "inverse-overflows": 1e-310 * np.eye(d)}.get(case, np.eye(d))
    got = ball.project_weighted(H, y)
    assert len(taken) == (case == "inverse-overflows")
    assert ball.contains(got)
    monkeypatch.setattr(core, "SERIES_MIN_DIM", d + 1)  # the eigh solve alone
    assert got.tobytes() == ball.project_weighted(H, y).tobytes()


@pytest.mark.parametrize("d", [10, core.SERIES_MIN_DIM, 50])
@pytest.mark.parametrize("scale", [1e-310, 1e-320])
def test_weighted_projection_on_a_subnormal_isotropic_metric_is_euclidean(d, scale):
    # H = s I near the subnormals is SPD and finite; its eigh solve's q = a / (lam + mu)
    # used to overflow (RuntimeWarning, then ProjectionError after PROJECTION_ITERS).
    # For isotropic H the weighted projection is the Euclidean one.
    rng = np.random.default_rng(d)
    ball = Ball(center=np.full(d, 0.005 / d), radius=0.5)
    u = rng.normal(size=d)
    y = ball.center + 1.001 * 0.5 * u / np.linalg.norm(u)
    x = ball.project_weighted(scale * np.eye(d), y)
    assert ball.contains(x)
    assert np.max(np.abs(x - ball.project(y))) <= np.finfo(float).eps


def test_maler_run_takes_the_series_solve(monkeypatch):
    # A seeded MalerLearner run at the series solve's smallest d, on a stream that drives
    # its Newton experts out of the ball, takes the series solve and plays within rounding
    # of the same run on the eigh solve alone.
    d, T = core.SERIES_MIN_DIM, 40
    taken = _counted_series(monkeypatch)

    def plays():
        rng = np.random.default_rng(3)
        drift = rng.normal(size=d)
        drift /= np.linalg.norm(drift)
        learner = MalerLearner(ProblemParams(horizon=T, dim=d, grad_bound=1.0, diameter=1.0),
                               Ball(center=np.zeros(d), radius=0.5))
        for _ in range(T):
            learner.predict()
            g = -drift + 0.3 * rng.normal(size=d) / math.sqrt(d)
            learner.observe(g / max(1.0, float(np.linalg.norm(g))))
        return learner.trace().plays

    fast = plays()
    assert len(taken) > 0
    monkeypatch.setattr(core, "SERIES_MIN_DIM", d + 1)
    count = len(taken)
    slow = plays()
    assert len(taken) == count
    assert np.max(np.abs(fast - slow)) <= 1e-14
