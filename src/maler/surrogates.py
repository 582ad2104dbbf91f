"""Per-round surrogate losses derived from the played point and its gradient.

Given the play x_t and observed gradient g_t, each learning rate eta induces
three one-round surrogates in the comparator variable x:

    quadratic:      l_t(x) = -eta (x_t - x)^T g_t + eta^2 ((x - x_t)^T g_t)^2
    spherical:      s_t(x) = -eta (x_t - x)^T g_t + eta^2 G^2 ||x_t - x||^2
    constant-pad:   c_t(x) = -eta (x_t - x)^T g_t + (eta G D)^2

All three upper-bound the scaled linearized regret while staying exp-concave
enough for an exponential-weights analysis, provided eta <= 2/(3 D G).
The scalar functions are the reference; expert_values evaluates a whole
grid of experts, each at its own point, in one vector expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KINDS, as_vector, rowdot


def eta_cap(G: float, D: float) -> float:
    """Largest learning rate admitted by the surrogate construction, 2/(3DG)."""
    return 2.0 / (3.0 * D * G)


@dataclass(frozen=True)
class SurrogateContext:
    """Frozen inputs of one round's surrogates: play, gradient, rate, bounds."""

    play: np.ndarray
    grad: np.ndarray
    eta: float
    G: float
    D: float

    def __post_init__(self):
        p = np.asarray(self.play, dtype=float)
        g = np.asarray(self.grad, dtype=float)
        object.__setattr__(self, "play", p)
        object.__setattr__(self, "grad", g)
        if p.ndim != 1 or g.shape != p.shape:
            raise ValueError("play and grad must be vectors of equal length")
        if not (self.G > 0 and self.D > 0):
            raise ValueError("G and D must be positive")
        cap = eta_cap(self.G, self.D)
        if not (0.0 < self.eta <= cap * (1.0 + 1e-12)):
            raise ValueError(f"eta={self.eta} outside (0, 2/(3DG)] = (0, {cap}]")


def _towards(ctx: SurrogateContext, x) -> float:
    """Inner product (x - x_t)^T g_t, the signed move along the gradient."""
    v = as_vector(x, ctx.play.shape[0])
    return float((v - ctx.play) @ ctx.grad)


def ell_value(ctx: SurrogateContext, x) -> float:
    """Quadratic surrogate eta*ip + (eta*ip)^2 with ip = (x-x_t)^T g_t."""
    ip = _towards(ctx, x)
    return ctx.eta * ip + (ctx.eta * ip) ** 2


def ell_grad(ctx: SurrogateContext, x) -> np.ndarray:
    """Gradient of the quadratic surrogate: (eta + 2 eta^2 ip) g_t."""
    ip = _towards(ctx, x)
    return (ctx.eta + 2.0 * ctx.eta**2 * ip) * ctx.grad


def s_value(ctx: SurrogateContext, x) -> float:
    """Spherical surrogate eta*ip + eta^2 G^2 ||x - x_t||^2."""
    v = as_vector(x, ctx.play.shape[0])
    d = v - ctx.play
    return ctx.eta * float(d @ ctx.grad) + ctx.eta**2 * ctx.G**2 * float(d @ d)


def s_grad(ctx: SurrogateContext, x) -> np.ndarray:
    """Gradient of the spherical surrogate: eta g_t + 2 eta^2 G^2 (x - x_t)."""
    v = as_vector(x, ctx.play.shape[0])
    return ctx.eta * ctx.grad + 2.0 * ctx.eta**2 * ctx.G**2 * (v - ctx.play)


def c_value(ctx: SurrogateContext, x) -> float:
    """Linear surrogate with constant pad: eta*ip + (eta G D)^2."""
    ip = _towards(ctx, x)
    return ctx.eta * ip + (ctx.eta * ctx.G * ctx.D) ** 2


def c_grad(ctx: SurrogateContext, x) -> np.ndarray:
    """Gradient of the padded linear surrogate, constant in x."""
    as_vector(x, ctx.play.shape[0])
    return ctx.eta * ctx.grad


def exp_inequality_check(ctx: SurrogateContext, x, slack: float = 1e-12) -> bool:
    """Verify exp(-s_t(x)) <= exp(-l_t(x)) <= 1 + eta (x_t - x)^T g_t,
    and the analogue exp(-c_t(x)) <= 1 + eta (x_t - x)^T g_t."""
    ip = _towards(ctx, x)
    lower = float(np.exp(-s_value(ctx, x)))
    mid = float(np.exp(-ell_value(ctx, x)))
    pad = float(np.exp(-c_value(ctx, x)))
    upper = 1.0 - ctx.eta * ip
    return lower <= mid + slack and mid <= upper + slack and pad <= upper + slack


def expert_constants(kinds, etas, G: float, D: float) -> np.ndarray:
    """Rows (pad, sph, quad) of expert_values, one column per expert, computed
    as c_value and s_value compute them: (eta G D)^2, eta^2 G^2 and 1."""
    out = np.zeros((3, len(kinds)))
    for e, (kind, eta) in enumerate(zip(kinds, map(float, etas))):
        row = KINDS.index(kind)
        out[row, e] = ((eta * G * D) ** 2, eta**2 * G**2, 1.0)[row]
    return out


def expert_values(etas: np.ndarray, constants: np.ndarray, points, play, grad) -> np.ndarray:
    """Each expert's surrogate eta ip + pad + sph ||x - x_t||^2 + quad (eta ip)^2 at its own point.

    points is (..., E, d) and play, grad are (..., d), so one round and a
    (T, E, d) stack of rounds go through the same expression.
    """
    pad, sph, quad = constants
    diff = points - play[..., None, :]
    lin = etas * rowdot(diff, grad[..., None, :])
    return lin + pad + sph * rowdot(diff, diff) + quad * lin**2
