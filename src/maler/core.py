"""Problem data, decision-set geometry, and the quadratic-form type.

The learners in this package operate on a decision set D, a Euclidean ball,
under two standing assumptions: every loss gradient is bounded in norm by G,
and the set has Euclidean diameter D. :class:`ProblemParams` carries both, with
the regret caps and online Newton step constants every learner derives from them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np


# Evaluations of ||x(mu) - c|| allowed to each solve of Ball._weighted_boundary_point: eigh
# takes 2-3 on well-conditioned weights, ~15 at condition 1e12, the series 2-3. The series
# is tried from SERIES_MIN_DIM up, if its bound rho on mu ||M^{-1}|| <= SERIES_MAX_RHO.
PROJECTION_ITERS = 100
SERIES_MIN_DIM = 30
SERIES_MAX_RHO = 1.0 / 16.0


class ProjectionError(RuntimeError):
    """Weighted projection failed to converge."""


def positive_float(name: str, value) -> float:
    """value as a float if it is a real number, not a bool, in (0, float max], else
    ValueError naming name, with a value that is not a real number shown by repr.

    The comparison is exact, so an int too large for a float is refused by
    name instead of raising OverflowError in float() or TypeError in numpy.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and 0 < value <= sys.float_info.max:
        return float(value)
    if real and isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        value = "an integer too large for a float"
    raise ValueError(f"{name} must be finite and > 0, got {value if real else repr(value)}")


# The expert kinds: constant-rate, spherical and quadratic (online Newton step).
KINDS = KIND_CONST, KIND_SPHERICAL, KIND_QUADRATIC = "c", "s", "ell"


def regret_caps(horizon: int, dim: int) -> dict:
    """{kind: (meta-regret cap, expert-regret cap)} at T = horizon: ln 3 and 3/4 for the
    constant-rate expert, 2 ln(sqrt(3)(log2(T)/2 + 3)) and 1 + ln T for a spherical one,
    the same meta cap and 10 d ln T for a quadratic one. The adaptive bounds' constants
    A and B are the sums of the spherical and the quadratic pair."""
    meta_cap = 2.0 * math.log(math.sqrt(3.0) * (0.5 * math.log2(horizon) + 3.0))
    ln_t = math.log(horizon)
    return {KIND_CONST: (math.log(3.0), 0.75), KIND_SPHERICAL: (meta_cap, 1.0 + ln_t),
            KIND_QUADRATIC: (meta_cap, 10.0 * dim * ln_t)}


def ons_grad_bound(D: float) -> float:
    """Norm cap 7/(25 D) on the quadratic surrogate's gradient."""
    return (7.0 / 25.0) / D


def newton_beta(G: float, D: float, alpha: float) -> float:
    """Online Newton step parameter beta = min(alpha, 1/(4 G D)) / 2 for alpha-exp-concave
    losses with gradients bounded by G on a set of diameter D (Hazan, Agarwal & Kale, 2007)."""
    return 0.5 * min(alpha, 1.0 / (4.0 * (G * D)))


def newton_metric(beta: float, D: float, dim: int) -> tuple:
    """Initial (Sigma, Sigma^{-1}) of an online Newton step, Sigma = I / (beta D)^2;
    ValueError if (beta D)^2 underflows to 0 or its inverse overflows."""
    squared = beta**2 * D**2
    scale = 1.0 / squared if squared > 0.0 else math.inf
    if scale == math.inf:
        raise ValueError(f"the online Newton metric I/(beta D)^2 overflows at beta = {beta:g}, "
                         f"D = {D:g}")
    return scale * np.eye(dim), (1.0 / scale) * np.eye(dim)


@dataclass(frozen=True)
class ProblemParams:
    """Static description of one online learning problem: T, d, then G, D and the losses'
    strong-convexity and exp-concavity moduli as floats (a modulus None where there is
    none). Derived once for every learner and certificate: the grid's top rate 1/(5 D G),
    the Newton rows' beta newton_beta(7/(25 D), D, 1), ONS's beta newton_beta(G, D, alpha)
    or None, and curvature_caps, regret-bounds' (label, cap) row per modulus at T the
    horizon. ValueError naming the field for what they cannot use: a cap of inf, which
    would pass any regret, or a Newton metric I/(beta D)^2 that overflows."""

    horizon: int
    dim: int
    grad_bound: float
    diameter: float
    sc_modulus: float | None = None
    exp_concavity: float | None = None
    top_rate: float = field(init=False, repr=False, compare=False)
    bank_beta: float = field(init=False, repr=False, compare=False)
    ons_beta: float | None = field(init=False, repr=False, compare=False)
    curvature_caps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("horizon", "dim"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            if value > sys.float_info.max:  # the grid and the regret caps take T and d as floats
                raise ValueError(f"{name} must fit in a float, got an integer too large for a float")
        for name in ("grad_bound", "diameter", "sc_modulus", "exp_concavity"):
            value = getattr(self, name)
            if value is not None or name in ("grad_bound", "diameter"):
                object.__setattr__(self, name, positive_float(name, value))
        G, D = self.grad_bound, self.diameter
        # The learners' step sizes divide by D^2 and by 4 G D (newton_beta), the
        # surrogates and certificates square G and the top rate; Python floats
        # overflow to inf and underflow to 0 here without a warning.
        for who, what, value in ((f"diameter {D:g} is out of range", "D^2", D * D),
                                 (f"diameter {D:g} is out of range for grad_bound {G:g}",
                                  "4 G D", 4.0 * (G * D)),
                                 (f"grad_bound {G:g} is out of range", "G^2", G * G)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{who}: {what} = {value:g} must be finite and > 0")
        rate = 1.0 / (5.0 * D * G)  # 4 G D > 0, so 5 D G > 0
        if not 0.0 < rate * rate < math.inf:
            raise ValueError(f"diameter {D:g} is out of range for grad_bound {G:g}: the top "
                             f"rate 1/(5 D G) = {rate:g} squared must be finite and > 0")
        bank_beta = newton_beta(ons_grad_bound(D), D, 1.0)
        ons_beta = None if self.exp_concavity is None else newton_beta(G, D, self.exp_concavity)
        table = regret_caps(self.horizon, self.dim)
        caps = []
        if self.sc_modulus is not None:
            tail = 9.0 * G**2 / (2.0 * self.sc_modulus)
            caps.append(("sc_modulus", "(10GD + 9G^2/(2 lam)) A",
                         (10.0 * G * D + tail) * sum(table[KIND_SPHERICAL])))
        if ons_beta is not None:
            # beta underflows to 0 at the smallest alpha; the cap is then inf.
            tail = 9.0 / (2.0 * ons_beta) if ons_beta > 0.0 else math.inf
            caps.append(("exp_concavity", "(10GD + 9/(2 beta)) B",
                         (10.0 * G * D + tail) * sum(table[KIND_QUADRATIC])))
        for name, label, cap in caps:
            if not cap < math.inf:
                raise ValueError(f"{name} {getattr(self, name)!r} is out of range: the regret "
                                 f"cap {label} is {cap:g}; it must be finite")
        for name, beta in (("diameter", bank_beta), ("exp_concavity", ons_beta)):
            if beta is None:
                continue
            try:
                newton_metric(beta, D, 1)
            except ValueError as exc:
                raise ValueError(f"{exc}, from {name} {getattr(self, name)!r}") from None
        object.__setattr__(self, "top_rate", rate)
        object.__setattr__(self, "bank_beta", bank_beta)
        object.__setattr__(self, "ons_beta", ons_beta)
        object.__setattr__(self, "curvature_caps",
                           tuple((f"regret <= {label}", cap) for _, label, cap in caps))

    @property
    def grad_cap(self) -> float:
        """Largest gradient norm accepted as within G: G (1 + 1e-9)."""
        return self.grad_bound * (1.0 + 1e-9)


def as_vector(x, dim: int) -> np.ndarray:
    """Coerce to a float vector of length dim or raise ValueError."""
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"expected vector of shape ({dim},), got {v.shape}")
    return v


def rowdot(a, b) -> np.ndarray:
    """Dot products over the last axis, each through numpy's vector dot as in `u @ v`."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# Unit roundoff of float64, and the smallest diagonal entry the dominance test
# of _check_spd takes: 2^53 times the smallest normal, so that an underflow in
# a Cholesky factorization of the matrix errs by under u^2 times its diagonal.
_U = 2.0**-53
_DIAG_FLOOR = 2.0**-969


def _check_spd(H, dim: int) -> np.ndarray:
    """Validate that H is symmetric positive definite, in two steps.

    First, an exactly symmetric H whose rows are strictly diagonally dominant
    by a margin that covers rounding is accepted with no factorization.
    Any other H must be finite, symmetric up to 1e-8 max(max |H_ij|, 1), a
    tolerance only computed for an H that is not exactly symmetric, and have
    a Cholesky factor.
    """
    M = np.asarray(H, dtype=float)
    if M.shape != (dim, dim):
        raise ValueError(f"expected matrix of shape ({dim},{dim}), got {M.shape}")
    A = np.abs(M)
    scale = A.max()
    symmetric = (M == M.T).all()
    diag = M.diagonal()
    # Row i passes if S_i = fl(sum_j |M_ij|) < fl(t M_ii), t = 2 - 4 (d+1)^2 u
    # (exact in floating point). Summed in any order, S_i >= (1 - g_{d-1}) s_i
    # for the exact sum s_i, with g_k = k u / (1 - k u) (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., section 4.2), and the
    # product errs by a factor of at most 1 + u. As t (1 + u) / (1 - g_{d-1})
    # <= 2 - m, m = d g_{d+1} / (1 - d g_{d+1}) ~ d^2 u, for every d with
    # t > 1, a passing row's exact off-diagonal sum is below (1 - m) M_ii.
    # By Gershgorin's theorem the symmetric M scaled to a unit diagonal then
    # has every eigenvalue above m, which is Demmel's condition for the
    # Cholesky factorization to succeed in floating point (ibid., Theorem
    # 10.7): the first step accepts only what the second would. The bound on
    # scale keeps every sum and product finite, the floor on the diagonal
    # keeps underflow out of these bounds, and a NaN fails every comparison,
    # so the first step raises no warning.
    if (scale <= sys.float_info.max / (2 * dim) and symmetric and diag.min() >= _DIAG_FLOOR
            and (A.sum(axis=1) < (2.0 - 4.0 * (dim + 1) ** 2 * _U) * diag).all()):
        return M
    if not np.isfinite(scale):
        raise ValueError("weight matrix has non-finite entries")
    if not symmetric and np.abs(M - M.T).max() > 1e-8 * max(scale, 1.0):
        raise ValueError("weight matrix is not symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError("weight matrix is not positive definite") from None
    return M


def _require_finite(v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        raise ValueError("cannot project a non-finite point")


@dataclass(frozen=True)
class Ball:
    """Euclidean ball { x : ||x - center|| <= radius }. Must contain the origin."""

    center: np.ndarray
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise ValueError("center must be a vector")
        if not np.isfinite(c).all():
            raise ValueError("center must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dim", c.shape[0])
        object.__setattr__(self, "radius", positive_float("radius", self.radius))
        # np.vdot overflows to inf, refusing the set, without the warning of np.linalg.norm.
        if math.sqrt(np.vdot(c, c)) > self.radius + 1e-12:
            raise ValueError("decision set must contain the origin")

    def contains(self, x) -> bool:
        """||x - center|| <= radius, with no tolerance."""
        z = as_vector(x, self.dim) - self.center
        # np.vdot equals z.dot(z) bit for bit but overflows to inf without a warning.
        return math.sqrt(np.vdot(z, z)) <= self.radius

    def project(self, y) -> np.ndarray:
        """Euclidean projection of y, one point or an (n, d) stack of rows, onto the ball.

        A point is projected as a one-row stack. The rows outside the ball (by
        contains) are scaled onto the sphere as one stack, c + z r/||z||, and
        shaved by ulps as in _shaved; a finite row whose square overflows is
        first divided by its largest entry. ValueError for a non-finite point
        or row (checked only when an outside row's norm is not finite).
        """
        v = np.asarray(y, dtype=float)
        if v.ndim > 2 or v.shape[-1:] != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},) or (n, {self.dim}), got {v.shape}")
        rows = v.reshape(-1, self.dim)
        z = rows - self.center
        with np.errstate(over="ignore"):
            n = np.sqrt(rowdot(z, z))
            # ~(n <= r), not n > r: a NaN row counts as outside and is refused.
            out = (~(n <= self.radius)).nonzero()[0]
            if out.size == 0:
                return v
            if out.size < n.size:
                z, n = z[out], n[out]
            if not np.isfinite(n).all():
                _require_finite(rows[out])
                big = n == math.inf
                zb = z[big] / np.abs(z[big]).max(axis=1)[:, None]
                z[big], n[big] = zb, np.sqrt(rowdot(zb, zb))
            s = self.radius / n
            p = self.center + z * s[:, None]
            for _ in range(99):  # _shaved's 100 points
                w = p - self.center
                bad = (~(np.sqrt(rowdot(w, w)) <= self.radius)).nonzero()[0]
                if bad.size == 0:
                    break
                s[bad] = np.nextafter(s[bad], 0.0)
                p[bad] = self.center + z[bad] * s[bad, None]
        if out.size < len(rows):
            rows = rows.copy()
            rows[out] = p
            p = rows
        return p.reshape(v.shape)

    def _shaved(self, z: np.ndarray, scale: float) -> np.ndarray:
        """center + scale z, with scale shaved by ulps until that point passes contains.

        The weighted boundary point takes it (project shaves its stack alike);
        the result passes contains, so projecting it again is a no-op.
        """
        for _ in range(100):
            p = self.center + z * scale
            w = p - self.center
            if math.sqrt(w.dot(w)) <= self.radius:
                return p
            scale = np.nextafter(scale, 0.0)
        return p

    def project_weighted(self, H, y) -> np.ndarray:
        """argmin_x (x-y)^T H (x-y) over the ball, H symmetric positive definite.

        Exact: a y outside the ball (by the test of contains) goes to
        _weighted_boundary_point (from d = SERIES_MIN_DIM a Neumann series in
        H^{-1} where a Gershgorin bound allows, else eigh), whose result passes
        contains, so projecting it again returns it bit for bit. H is checked
        first on every call, y for finite entries only if ||y - c||^2 is not
        finite: ValueError if H is not SPD or y is not finite, ProjectionError
        if the solve fails.
        """
        M = _check_spd(H, self.dim)
        v = as_vector(y, self.dim)
        z = v - self.center
        zz = np.vdot(z, z)
        if math.sqrt(zz) <= self.radius:
            return v
        if not math.isfinite(zz):
            _require_finite(v)
        return self._weighted_boundary_point(M, v)

    def _weighted_boundary_point(self, M, v: np.ndarray) -> np.ndarray:
        """argmin (x-v)^T M (x-v) over the ball, for M positive definite and v outside it.

        KKT: x(mu) = c + (M + mu I)^{-1} M (v - c) with mu >= 0 and
        ||x(mu) - c|| = r. In the eigenbasis M = V diag(lam) V^T,
        x(mu) - c = V q(mu) with q = a / (lam + mu) and a = lam * V^T (v - c).
        1/||q(mu)|| is concave and increasing, so Newton's method on the
        secular equation 1/||q(mu)|| = 1/r (Moré & Sorensen, 1983), started
        left of the root, climbs to it without overshooting. Each step moves
        mu up by at least one ulp, and the first mu with ||q(mu)|| <= r ends
        the solve: the multiplier is pinned within a few ulps on the feasible
        side. The point is shaved as in project, so it passes contains. If
        lam_max < 2^-512 (else q can overflow) or a.a overflows, lam and a (and
        so mu) are scaled by one power of two, which leaves q(mu) as it is. Raises ProjectionError after
        PROJECTION_ITERS evaluations (non-finite input). From d = SERIES_MIN_DIM up,
        _series_boundary_point goes first.
        """
        z = v - self.center
        if self.dim >= SERIES_MIN_DIM and (x := self._series_boundary_point(M, z)) is not None:
            return x
        lam, V = np.linalg.eigh(M)
        if lam[-1] < 2.0**-512:
            lam = np.ldexp(lam, -math.frexp(lam[-1])[1])
        w = V.T @ z
        with np.errstate(over="ignore"):
            a = lam * w
            aa = a.dot(a)
        if math.isinf(aa):
            lam = np.ldexp(lam, -math.frexp(np.abs(w).max())[1] - math.frexp(lam[-1])[1])
            a = lam * w
            aa = a.dot(a)
        r = self.radius
        # ||q(mu)|| >= ||a|| / (lam_max + mu), so this mu is left of the root.
        mu = max(0.0, math.sqrt(aa) / r - float(lam[-1]))
        for _ in range(PROJECTION_ITERS):
            s = lam + mu
            q = a / s
            qq = q.dot(q)
            n = math.sqrt(qq)
            if n <= r:
                return self._shaved(V @ q, 1.0)
            # Newton step on 1/n - 1/r, whose derivative is sum(q^2 / s) / n^3.
            # n > r makes it positive; at the root's last ulps it may round
            # below one ulp of mu, hence the floor.
            mu = max(mu + (n - r) / r * qq / q.dot(q / s), math.nextafter(mu, math.inf))
        raise ProjectionError(f"weighted projection did not converge: ||x - c|| - r = {n - r:.3e}")

    def _series_boundary_point(self, M, z: np.ndarray):
        """The boundary point from M^{-1} and a Neumann series, or None for the eigh solve.

        x - c = (I + mu M^{-1})^{-1} z = sum_k (-mu)^k M^{-k} z, z = v - c. For an exactly
        symmetric M, Gershgorin gives lam_min >= lo = min_i (2 M_ii - S_i), S_i the absolute row
        sums and 2 shaved by _check_spd's margin, and mu* <= s = max_i S_i (||z||/r - 1 + 4u), so
        rho = s/lo >= mu* ||M^{-1}||. The series in w_k = (s M^{-1})^k z and t = mu/s is cut where
        rho^(K-1) <= 2^-56; Newton's method on its Gram polynomial climbs from t = 0 as eigh's does.
        """
        d, r = self.dim, self.radius
        with np.errstate(over="ignore", invalid="ignore"):
            S = np.abs(M).sum(axis=1)
            lo = float(((2.0 - 4.0 * (d + 1) ** 2 * _U) * M.diagonal() - S).min())
            s = float(S.max()) * (math.sqrt(z.dot(z)) / r - 1.0 + 4.0 * _U)
            if not (lo > 0.0 and 0.0 < s / lo <= SERIES_MAX_RHO and (M == M.T).all()):
                return None
            B = np.linalg.inv(M)
            k = np.arange(math.ceil(-56.0 / math.log2(s / lo)) + 1)
            W = np.empty((k.size, d))
            W[0] = z
            for i in k[1:]:
                W[i] = (B @ W[i - 1]) * s
            G = W @ W.T
        if not np.isfinite(G).all():
            return None
        # p(t) = sum_m g_m (-t)^m with g_m the sum of G's m-th antidiagonal.
        g = np.bincount((k[:, None] + k).ravel(), G.ravel()).tolist()[::-1]
        t = 0.0
        for _ in range(PROJECTION_ITERS):
            p = dp = 0.0  # p(t) and -dp/dt by Horner's rule in -t
            for gm in g:
                dp, p = dp * -t + p, p * -t + gm
            n = math.sqrt(p)
            if n <= r:
                return self._shaved(np.power(-t, k) @ W, 1.0)
            if not dp > 0.0:  # underflow: p no longer falls
                return None
            t = max(t + 2.0 * p * (n - r) / (r * dp), math.nextafter(t, math.inf))
        return None


# Step cap and move tolerance of projected_gradient.
PGD_ITERS = 10000
PGD_TOL = 1e-12


def projected_gradient(f, ball: Ball, smoothness: float, u) -> tuple:
    """Minimize an L-smooth convex f over the ball by projected gradient descent from u.

    The step is the constant 1/L (Nesterov, Introductory Lectures on Convex
    Optimization, 2004, section 2.2), with L = smoothness floored at 1e-12.
    Stops after the first step that moves u by at most PGD_TOL, or after
    PGD_ITERS steps. Returns (u, steps, gap), the gap being the Frank-Wolfe
    duality gap at the returned u (Jaggi, ICML 2013): with g = f.gradient(u),
    max over v in the ball of g^T (u - v) = g^T (u - c) + r ||g||, which
    bounds f(u) - min f over the ball by convexity.
    """
    step = 1.0 / max(smoothness, 1e-12)
    for steps in range(1, PGD_ITERS + 1):
        nxt = ball.project(u - step * f.gradient(u))
        move = float(np.linalg.norm(nxt - u))
        u = nxt
        if move <= PGD_TOL:
            break
    g = f.gradient(u)
    return u, steps, float(g @ (u - ball.center)) + ball.radius * float(np.linalg.norm(g))


class Quadratic:
    """f(u) = iso ||u||^2 + u^T M u + q^T u + r, with M symmetric PSD or absent.

    Quadratic losses, the summed per-expert surrogates, and sums of either are
    all of this form; `+` adds coefficients. value and gradient evaluate
    ((u^T M u + q^T u) + r) + iso u^T u and (2 M u + q) + 2 iso u in that
    order: ridge-stream learner traces depend on it bit for bit.
    """

    def __init__(self, q, r: float = 0.0, iso: float = 0.0, M=None):
        self.q = np.asarray(q, dtype=float)
        self.r = r
        self.iso = iso
        self.M = None if M is None else np.asarray(M, dtype=float)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def __add__(self, other: "Quadratic") -> "Quadratic":
        if not isinstance(other, Quadratic):
            return NotImplemented
        if self.M is None or other.M is None:
            M = other.M if self.M is None else self.M
        else:
            M = self.M + other.M
        return Quadratic(self.q + other.q, self.r + other.r, self.iso + other.iso, M)

    def value(self, u) -> float:
        u = np.asarray(u, dtype=float)
        out = float(self.q @ u)
        if self.M is not None:
            out = float(u @ (self.M @ u)) + out
        out += self.r
        if self.iso:
            out += self.iso * float(u @ u)
        return out

    def gradient(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        g = self.q.copy() if self.M is None else 2.0 * (self.M @ u) + self.q
        if self.iso:
            g = g + (2.0 * self.iso) * u
        return g

    @property
    def smoothness(self) -> float:
        """Lipschitz constant of the gradient, 2 (lambda_max(M) + iso)."""
        top = 0.0 if self.M is None else float(np.linalg.eigvalsh(self.M)[-1])
        return 2.0 * (top + self.iso)

    def minimize(self, ball: Ball) -> np.ndarray:
        """Minimizer over the ball.

        Closed forms: the boundary point against q for a linear form,
        shaved as in project so that it passes contains, the projection of
        the unconstrained minimizer for an isotropic one, and for
        positive-definite H = M + iso I the H-weighted projection of the
        unconstrained minimizer x_hat, exact because f(u) = (u - x_hat)^T H
        (u - x_hat) + const. Singular H, or a weighted projection that
        raises ProjectionError, falls back to projected_gradient with
        L = 2 lambda_max(H) from the projection of the origin.
        """
        if self.M is None:
            if self.iso > 0.0:
                return ball.project(-self.q / (2.0 * self.iso))
            n = float(np.linalg.norm(self.q))
            if n == 0.0:
                return ball.center.copy()
            return ball._shaved(-self.q, ball.radius / n)
        H = self.M + self.iso * np.eye(self.dim) if self.iso else self.M
        lam = np.linalg.eigvalsh(H)
        if lam[0] > self.dim * np.finfo(float).eps * lam[-1]:
            try:
                return ball.project_weighted(H, np.linalg.solve(H, -0.5 * self.q))
            except ProjectionError:
                pass
        return projected_gradient(self, ball, 2.0 * float(lam[-1]),
                                  ball.project(np.zeros(self.dim)))[0]
