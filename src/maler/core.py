"""Problem data, decision-set geometry, and the quadratic-form type.

The learners in this package operate on a decision set D, a Euclidean ball,
under two standing assumptions: every loss gradient is bounded in norm
by G, and the set has Euclidean diameter D. Both constants are part of
the problem statement and are carried around in :class:`ProblemParams`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


# Evaluations of ||x(mu) - c|| allowed to Ball._weighted_boundary_point. It
# takes two or three on well-conditioned weights, up to about 15 at condition 1e12.
PROJECTION_ITERS = 100


class ProjectionError(RuntimeError):
    """Weighted projection failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ProblemParams:
    """Static description of one online learning problem."""

    horizon: int
    dim: int
    grad_bound: float
    diameter: float

    def __post_init__(self):
        for name in ("horizon", "dim"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not (np.isfinite(self.grad_bound) and self.grad_bound > 0):
            raise ValueError(f"grad_bound must be finite and > 0, got {self.grad_bound}")
        if not (np.isfinite(self.diameter) and self.diameter > 0):
            raise ValueError(f"diameter must be finite and > 0, got {self.diameter}")

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


def _check_spd(H, dim: int) -> np.ndarray:
    """Validate that H is symmetric positive definite, via attempted Cholesky.

    Asymmetry up to 1e-8 max(max |H_ij|, 1) is accepted; the tolerance is
    only computed for an H that is not exactly symmetric.
    """
    M = np.asarray(H, dtype=float)
    if M.shape != (dim, dim):
        raise ValueError(f"expected matrix of shape ({dim},{dim}), got {M.shape}")
    scale = np.abs(M).max()
    if not np.isfinite(scale):
        raise ValueError("weight matrix has non-finite entries")
    if not (M == M.T).all() and np.abs(M - M.T).max() > 1e-8 * max(scale, 1.0):
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
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dim", c.shape[0])
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and > 0, got {self.radius}")
        if float(np.linalg.norm(c)) > self.radius + 1e-12:
            raise ValueError("decision set must contain the origin")

    def contains(self, x, tol: float = 1e-12) -> bool:
        z = as_vector(x, self.dim) - self.center
        return math.sqrt(z.dot(z)) <= self.radius + tol

    def project(self, y) -> np.ndarray:
        """Euclidean projection of y, one point or an (n, d) stack of rows, onto the ball.

        A point outside the ball (by the tolerance-free test of contains)
        is scaled onto the sphere by _shaved. A row of a stack goes through
        the same float operations as the same point alone, so both return
        it bit for bit. Raises ValueError for a non-finite point or row.
        """
        v = np.asarray(y, dtype=float)
        if v.ndim > 2 or v.shape[-1:] != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},) or (n, {self.dim}), got {v.shape}")
        z = v - self.center
        if v.ndim == 1:
            n = math.sqrt(z.dot(z))
            if n <= self.radius:
                return v
            _require_finite(v)
            return self._shaved(z, self.radius / n)
        n = np.sqrt(rowdot(z, z))
        # ~(n <= r), not n > r: a NaN row counts as outside and is refused.
        out = np.flatnonzero(~(n <= self.radius))
        if out.size == 0:
            return v
        _require_finite(v[out])
        p = v.copy()
        for i in out:
            p[i] = self._shaved(z[i], self.radius / n[i])
        return p

    def _shaved(self, z: np.ndarray, scale: float) -> np.ndarray:
        """center + scale z, with scale shaved by ulps until that point passes contains(tol=0).

        The feasibility test is the one project applies to its input, so
        projecting the result a second time is a no-op.
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

        Exact: a y outside the ball (by the tolerance-free test of project)
        goes to _weighted_boundary_point, whose result passes
        contains(x, tol=0.0), so projecting it again returns it bit for bit.
        Raises ValueError if H is not SPD and ProjectionError if the boundary
        solve does not converge.
        """
        M = _check_spd(H, self.dim)
        v = as_vector(y, self.dim)
        z = v - self.center
        if math.sqrt(z.dot(z)) <= self.radius:
            return v
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
        side. The point is shaved as in project, so it passes
        contains(x, tol=0.0). Raises ProjectionError after PROJECTION_ITERS
        evaluations (non-finite input).
        """
        lam, V = np.linalg.eigh(M)
        a = lam * (V.T @ (v - self.center))
        r = self.radius
        # ||q(mu)|| >= ||a|| / (lam_max + mu), so this mu is left of the root.
        mu = max(0.0, math.sqrt(a.dot(a)) / r - float(lam[-1]))
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
        raise ProjectionError(
            f"weighted projection did not converge: |residual| = {abs(n - r):.3e}", abs(n - r)
        )

    def diameter(self) -> float:
        return 2.0 * self.radius

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform point: uniform direction times U^(1/d) radius."""
        z = rng.standard_normal(self.dim)
        n = float(np.linalg.norm(z))
        if n == 0.0:
            return self.center.copy()
        u = rng.uniform() ** (1.0 / self.dim)
        return self.center + z * (self.radius * u / n)


class LossOracle:
    """One round's convex loss: value and gradient queries at feasible points."""

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError


# Iteration cap and step tolerance of the projected-gradient fallback in
# Quadratic.minimize.
PGD_ITERS = 10000
PGD_TOL = 1e-12


class Quadratic(LossOracle):
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

    def values(self, U) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        out = U @ self.q
        if self.M is not None:
            out = np.einsum("nd,nd->n", U, U @ self.M) + out
        out = out + self.r
        if self.iso:
            out = out + self.iso * np.einsum("nd,nd->n", U, U)
        return out

    def gradient(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        g = self.q.copy() if self.M is None else 2.0 * (self.M @ u) + self.q
        if self.iso:
            g = g + (2.0 * self.iso) * u
        return g

    def minimize(self, ball: Ball) -> np.ndarray:
        """Minimizer over the ball.

        Closed forms: the boundary point against q for a linear form,
        shaved as in project so that it passes contains(u, tol=0.0), the
        projection of the unconstrained minimizer for an isotropic one, and
        for positive-definite H = M + iso I the H-weighted projection of the
        unconstrained minimizer x_hat, exact because f(u) = (u - x_hat)^T H
        (u - x_hat) + const. That projection is the one project_weighted
        makes (the same inside test and Ball._weighted_boundary_point), so the
        two return the same point for the same H and target, and it passes
        contains(u, tol=0.0). Singular H, or a boundary solve that raises
        ProjectionError, falls back to projected gradient descent with step
        1/(2 lambda_max(H)) from the origin.
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
            x_hat = np.linalg.solve(H, -0.5 * self.q)
            if ball.contains(x_hat, tol=0.0):
                return x_hat
            try:
                return ball._weighted_boundary_point(H, x_hat)
            except ProjectionError:
                pass
        step = 1.0 / max(2.0 * float(lam[-1]), 1e-12)
        u = ball.project(np.zeros(self.dim))
        for _ in range(PGD_ITERS):
            nxt = ball.project(u - step * self.gradient(u))
            if float(np.linalg.norm(nxt - u)) <= PGD_TOL:
                return nxt
            u = nxt
        return u
