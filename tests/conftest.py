"""Shared helpers: an independent finite-difference gradient checker, a ball sampler, a
vectorized quadratic evaluator for brute-force grid references, the SPD check's reference
and a LIBSVM file one of whose squared row norms overflows."""

import numpy as np

from maler.harness import gen_classification_file


def central_fd(fn, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        step = h * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return g


def fd_matches(fn, grad_fn, x, rtol: float = 1e-6) -> bool:
    """Check an analytic gradient against central differences."""
    g = np.asarray(grad_fn(x), dtype=float)
    fd = central_fd(fn, x)
    return float(np.linalg.norm(g - fd)) <= rtol * max(1.0, float(np.linalg.norm(g)))


def sample_point(ball, rng: np.random.Generator) -> np.ndarray:
    """A uniform point of the ball: uniform direction times U^(1/d) radius."""
    z = rng.standard_normal(ball.dim)
    n = float(np.linalg.norm(z))
    if n == 0.0:
        return ball.center.copy()
    u = rng.uniform() ** (1.0 / ball.dim)
    return ball.center + z * (ball.radius * u / n)


def quadratic_values(f, U) -> np.ndarray:
    """iso ||u||^2 + u^T M u + q^T u + r of a core.Quadratic f at each row u of U."""
    U = np.asarray(U, dtype=float)
    out = U @ f.q + f.r + f.iso * np.einsum("nd,nd->n", U, U)
    if f.M is not None:
        out += np.einsum("nd,nd->n", U, U @ f.M)
    return out


def reference_check_spd(H, dim: int) -> np.ndarray:
    """The SPD check by attempted Cholesky alone, as core._check_spd made it before its
    diagonal-dominance test: every verdict and message of _check_spd must match it."""
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


def write_e278_file(path) -> None:
    """The 20-example, 3-feature generated LIBSVM file (seed 0) with line 16's first
    value set to 5.937480717858E278: finite, but its square, and so that row's
    squared norm, overflows."""
    gen_classification_file(path, examples=20, dim=3, seed=0)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    fields = lines[15].split(" ")
    fields[1] = "1:5.937480717858E278"
    lines[15] = " ".join(fields)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
