"""Acceptance battery: nine numbered end-to-end checks.

Each test prints one [PASS]/[FAIL] line for its criterion before asserting,
so a captured run reads as a checklist. Criteria 1, 2, 3, and 5 share one
battery of 100 fuzzed linear-loss streams built once per module.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import fd_matches
from maler import (
    Ball,
    MalerLearner,
    ProblemParams,
    Quadratic,
    build_grid,
    expert_regret_certificate,
    meta_regret_certificate,
    metagrad_baseline,
    regret_bound_certificate,
)
from maler.core import KIND_CONST, KIND_QUADRATIC, KIND_SPHERICAL, regret_caps
from maler.harness import (
    LogisticBatchLoss,
    RidgeBatchLoss,
    gen_classification_file,
    gen_regression,
    load_classification,
    offline_comparator,
    run_stream,
    sample_ball,
)
from maler.surrogates import (
    SurrogateContext,
    c_grad,
    c_value,
    ell_grad,
    ell_value,
    s_grad,
    s_value,
)

DIMS = (1, 2, 5, 20)
HORIZONS = (16, 64, 256)

# Traces registered by earlier criteria for the potential check (criterion 5).
EXTRA_TRACES = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def fuzz():
    """100 linear-loss streams with G = D = 1 over the radius-0.5 ball."""
    streams = []
    start = time.perf_counter()
    for i in range(100):
        d = DIMS[i % 4]
        T = HORIZONS[(i // 4) % 3]
        rng = np.random.default_rng(1000 + i)
        dirs = rng.standard_normal((T, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        grads = dirs * rng.uniform(0.2, 1.0, size=(T, 1))
        params = ProblemParams(horizon=T, dim=d, grad_bound=1.0, diameter=1.0)
        dset = Ball(center=np.zeros(d), radius=0.5)
        trace = run_stream(MalerLearner(params, dset), [Quadratic(q=g) for g in grads])
        streams.append({"trace": trace, "grads": grads, "params": params, "dset": dset})
    return streams, time.perf_counter() - start


def test_criterion_1_meta_regret_certificates(fuzz):
    streams, build_s = fuzz
    start = time.perf_counter()
    checks = bad = 0
    for s in streams:
        rep = meta_regret_certificate(s["trace"])
        checks += len(rep.rows)
        bad += sum(1 for r in rep.rows if not r.ok)
    elapsed = build_s + time.perf_counter() - start
    ok = bad == 0 and elapsed < 120.0
    _verdict(1, ok, f"per-rate meta-regret caps on 100 streams "
                    f"({checks} checks, {bad} violations, {elapsed:.1f}s)")
    assert bad == 0
    assert elapsed < 120.0


# Criterion 2 measures each expert against a test-local brute-force
# comparator: a dense grid for d <= 2, projected gradient descent otherwise,
# both driven by independently accumulated sufficient statistics.

_GRID_CACHE = {}


def _grid_pts(d: int) -> np.ndarray:
    if d not in _GRID_CACHE:
        ax = np.arange(-0.5, 0.5 + 5e-4, 1e-3)
        if d == 1:
            pts = ax[np.abs(ax) <= 0.5][:, None]
        else:
            mesh = np.meshgrid(ax, ax, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            pts = pts[np.einsum("nd,nd->n", pts, pts) <= 0.25]
        _GRID_CACHE[d] = pts
    return _GRID_CACHE[d]


def _surrogate_stats(plays: np.ndarray, grads: np.ndarray) -> dict:
    ipx = np.einsum("td,td->t", grads, plays)
    return {
        "sg": grads.sum(axis=0),
        "sgx": float(ipx.sum()),
        "sx": plays.sum(axis=0),
        "sxx": float(np.einsum("td,td->t", plays, plays).sum()),
        "M": grads.T @ grads,
        "p": grads.T @ ipx,
        "sq": float(ipx @ ipx),
        "T": plays.shape[0],
    }


def _summed_value(stats: dict, eta: float, kind: str, pts: np.ndarray) -> np.ndarray:
    # G = D = 1 throughout the fuzz battery.
    pts = np.atleast_2d(pts)
    lin = eta * (pts @ stats["sg"] - stats["sgx"])
    if kind == "c":
        return lin + stats["T"] * eta * eta
    if kind == "s":
        quad = (stats["T"] * np.einsum("nd,nd->n", pts, pts)
                - 2.0 * (pts @ stats["sx"]) + stats["sxx"])
        return lin + eta * eta * quad
    quad = (np.einsum("nd,nd->n", pts, pts @ stats["M"])
            - 2.0 * (pts @ stats["p"]) + stats["sq"])
    return lin + eta * eta * quad


def _summed_grad(stats: dict, eta: float, kind: str, u: np.ndarray) -> np.ndarray:
    g = eta * stats["sg"]
    if kind == "s":
        g = g + 2.0 * eta * eta * (stats["T"] * u - stats["sx"])
    elif kind == "ell":
        g = g + 2.0 * eta * eta * (stats["M"] @ u - stats["p"])
    return g


def _local_pgd(stats: dict, eta: float, kind: str, d: int, iters: int = 10000) -> np.ndarray:
    if kind == "c":
        lips = 2.0 * eta * float(np.linalg.norm(stats["sg"]))
    elif kind == "s":
        lips = 2.0 * eta * eta * stats["T"]
    else:
        lips = 2.0 * eta * eta * float(np.linalg.eigvalsh(stats["M"])[-1])
    lips = max(lips, 1e-12)
    u = np.zeros(d)
    for _ in range(iters):
        nxt = u - _summed_grad(stats, eta, kind, u) / lips
        n = float(np.linalg.norm(nxt))
        if n > 0.5:
            nxt = nxt * (0.5 / n)
        if float(np.linalg.norm(nxt - u)) <= 1e-12:
            return nxt
        u = nxt
    return u


def test_criterion_2_expert_regret_certificates(fuzz):
    streams, _ = fuzz
    checks = bad = 0
    for s in streams:
        trace = s["trace"]
        grid = trace.grid
        T, d = trace.plays.shape
        bad += sum(1 for r in expert_regret_certificate(trace).rows if not r.ok)
        stats = _surrogate_stats(trace.plays, trace.grads)
        pts = _grid_pts(d) if d <= 2 else None
        for e, kind in enumerate(grid.kinds):
            eta = float(grid.tilts[e])
            own_pts = trace.expert_points[:, e, :]
            ips = np.einsum("td,td->t", own_pts - trace.plays, trace.grads)
            if kind == "c":
                own = eta * float(ips.sum()) + T * eta * eta
                bound = regret_caps(T, d)[KIND_CONST][1]
            elif kind == "s":
                dev = np.einsum("td,td->t", own_pts - trace.plays, own_pts - trace.plays)
                own = eta * float(ips.sum()) + eta * eta * float(dev.sum())
                bound = regret_caps(T, d)[KIND_SPHERICAL][1]
            else:
                own = eta * float(ips.sum()) + eta * eta * float(ips @ ips)
                bound = regret_caps(T, d)[KIND_QUADRATIC][1]
            if pts is not None:
                best = float(np.min(_summed_value(stats, eta, kind, pts)))
            else:
                u = _local_pgd(stats, eta, kind, d)
                best = float(_summed_value(stats, eta, kind, u)[0])
            checks += 1
            if own - best > bound:
                bad += 1
    ok = bad == 0
    _verdict(2, ok, f"per-expert surrogate regret vs brute-force comparator "
                    f"({checks} checks, {bad} violations)")
    assert bad == 0


def test_criterion_3_simultaneous_regret_bounds(fuzz):
    streams, _ = fuzz
    assert abs(2.0 * (1.0 + math.log(3.0)) * 10.0 - 41.97) < 0.01
    checks = bad = 0
    for s in streams:
        trace = s["trace"]
        q = s["grads"].sum(axis=0)
        qn = float(np.linalg.norm(q))
        u = -0.5 * q / qn if qn > 0 else np.zeros_like(q)
        trace.comparator, trace.loss_at_comparator = u, s["grads"] @ u
        rep = regret_bound_certificate(trace)
        checks += len(rep.rows)
        bad += sum(1 for r in rep.rows if not r.ok)
    ok = bad == 0
    _verdict(3, ok, f"worst-case and both adaptive regret bounds on 100 streams "
                    f"({checks} checks, {bad} violations)")
    assert bad == 0


# Criterion 4 measures final regret at horizons T and 2T with a fresh,
# horizon-matched learner for each (the constant-rate tilt depends on the
# horizon given at construction), on streams whose curvature-adaptive route
# visibly flattens the regret curve by T = 128.


def _final_regret(losses, g_bound: float, dset, u: np.ndarray):
    d = dset.dim
    params = ProblemParams(horizon=len(losses), dim=d, grad_bound=g_bound, diameter=1.0)
    trace = run_stream(MalerLearner(params, dset), losses)
    at_u = sum(f.value(u) for f in losses)
    return float(np.sum(trace.loss_at_play) - at_u), trace, params


def test_criterion_4_curvature_adaptive_bounds():
    rows = []
    bad = 0
    dset = Ball(center=np.zeros(3), radius=0.5)
    for lam in (0.1, 1.0):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            centers = np.array([0.35, 0.0, 0.0]) + sample_ball(rng, 256, 3, 0.05)
            losses = [Quadratic(q=-lam * a, r=0.5 * lam * float(a @ a), iso=0.5 * lam)
                      for a in centers]
            u_half = centers[:128].mean(axis=0)
            u_full = centers.mean(axis=0)
            assert np.linalg.norm(u_full) < 0.5 and np.linalg.norm(u_half) < 0.5
            r_half, _, _ = _final_regret(losses[:128], lam * 0.9, dset, u_half)
            r_full, trace, params = _final_regret(losses, lam * 0.9, dset, u_full)
            EXTRA_TRACES.append(trace)
            [(_, cap)] = replace(params, sc_modulus=lam).curvature_caps
            bad += int(r_full > cap)
            assert r_half > 0
            ratio = r_full / r_half
            bad += int(ratio > 1.35)
            if seed == 0:
                rows.append(f"quad lam={lam}: regret {r_full:.3f} <= {cap:.1f}, "
                            f"ratio {ratio:.3f}")

    rng = np.random.default_rng(42)
    w = rng.standard_normal(4)
    w /= np.linalg.norm(w)
    losses = []
    bounds = []
    for _ in range(256):
        X = sample_ball(rng, 32, 4, 1.0)
        y = np.where(X @ w + 0.3 * rng.standard_normal(32) >= 0, 1.0, -1.0)
        losses.append(LogisticBatchLoss(X * y[:, None], 32))
        bounds.append(losses[-1].grad_bound)
    dset = Ball(center=np.zeros(4), radius=0.5)
    alpha = math.exp(-0.5)
    Z = np.concatenate([f.Z for f in losses])
    u_half, _ = offline_comparator(LogisticBatchLoss(Z[: 128 * 32], 32), dset)
    u_full, _ = offline_comparator(LogisticBatchLoss(Z, 32), dset)
    r_half, _, _ = _final_regret(losses[:128], max(bounds[:128]), dset, u_half)
    r_full, trace, params = _final_regret(losses, max(bounds), dset, u_full)
    EXTRA_TRACES.append(trace)
    [(_, cap)] = replace(params, exp_concavity=alpha).curvature_caps
    bad += int(r_full > cap)
    assert r_half > 0
    ratio = r_full / r_half
    bad += int(ratio > 1.35)
    rows.append(f"logistic: regret {r_full:.3f} <= {cap:.1f}, ratio {ratio:.3f}")

    ok = bad == 0
    _verdict(4, ok, "curvature-adaptive caps and horizon-doubling ratio <= 1.35 ("
             + "; ".join(rows) + f", {bad} violations)")
    assert bad == 0


def test_criterion_5_potential_monotonicity(fuzz):
    streams, _ = fuzz
    traces = [s["trace"] for s in streams] + list(EXTRA_TRACES)
    for s in streams[:5]:
        learner = metagrad_baseline(s["params"], s["dset"])
        traces.append(run_stream(learner, [Quadratic(q=g) for g in s["grads"]]))
    bad = 0
    for trace in traces:
        phi = np.asarray(trace.log_phi, dtype=float)
        steps = np.diff(np.concatenate([[0.0], phi]))
        bad += int(float(np.max(steps)) > 1e-9)
        bad += int(float(np.max(phi)) > 1e-9)
    ok = bad == 0
    _verdict(5, ok, f"log-potential non-increasing and <= 0 on {len(traces)} runs "
                    f"({bad} violations)")
    assert bad == 0


def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(321)
    fails = 0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        play = sample_ball(rng, 1, d, 0.5)[0]
        gdir = rng.standard_normal(d)
        grad = gdir / np.linalg.norm(gdir) * rng.uniform(0.05, 1.0)
        ctx = SurrogateContext(play=play, grad=grad, eta=rng.uniform(1e-3, 2.0 / 3.0),
                               G=1.0, D=1.0)
        x = rng.standard_normal(d) * 0.4
        for val, grd in ((ell_value, ell_grad), (s_value, s_grad), (c_value, c_grad)):
            if not fd_matches(lambda v: val(ctx, v), lambda v: grd(ctx, v), x):
                fails += 1
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        X = rng.standard_normal((6, d))
        y = rng.standard_normal(6)
        labels = np.where(rng.uniform(size=6) < 0.5, -1.0, 1.0)
        g, lam = rng.standard_normal(d), float(rng.uniform(0.1, 2.0))
        a = rng.standard_normal(d) * 0.3
        oracles = [
            Quadratic(q=g),
            Quadratic(q=-lam * a, r=0.5 * lam * float(a @ a), iso=0.5 * lam),
            RidgeBatchLoss(X, y, lam=float(rng.uniform(1e-4, 0.1)), radius=0.5),
            LogisticBatchLoss(X * labels[:, None], 6),
        ]
        x = rng.standard_normal(d) * 0.5
        for f in oracles:
            if not fd_matches(f.value, f.gradient, x):
                fails += 1
    ok = fails == 0
    _verdict(6, ok, f"surrogate and task-loss gradients vs central differences, "
                    f"7000 checks ({fails} failures)")
    assert fails == 0


def _clamp_ball(v: float, r: float) -> float:
    n = abs(v)
    if n <= r:
        return v
    return v * (r / n)


def test_criterion_7_engine_equivalence():
    # One-dimensional three-round run, mirrored step by step in plain floats.
    r = 0.5
    params = ProblemParams(horizon=3, dim=1, grad_bound=1.0, diameter=1.0)
    dset = Ball(center=np.zeros(1), radius=r)
    learner = MalerLearner(params, dset)
    gs = [0.3, -0.2, 0.25]
    lw_engine = []  # the trace does not record the log weights: read the live state
    for g in gs:
        learner.predict()
        learner.observe(np.array([g]))
        lw_engine.append(learner.log_weights.copy())
    trace = learner.trace()

    eta_c = 1.0 / (2.0 * math.sqrt(3.0))
    tilts = [eta_c, 0.2, 0.1, 0.2, 0.1]
    kinds = ["c", "s", "s", "ell", "ell"]
    C = 1.5
    lw = [math.log(1.0 / 3.0)] + [math.log(C / (3.0 * (i + 1) * (i + 2))) for i in (0, 1)] * 2
    beta = 0.5 * min(1.0 / (4.0 * (7.0 / 25.0) * 1.0), 1.0)
    scale = 1.0 / (beta**2 * 1.0**2)
    xs = [0.0] * 5
    sig = [scale, scale]
    inv = [1.0 / scale, 1.0 / scale]
    logphi = 0.0
    plays, pts_hist, lw_hist, phi_hist = [], [], [], []
    for t in range(1, 4):
        g = gs[t - 1]
        pts_hist.append(list(xs))
        m = max(lw)
        wts = [math.exp(v - m) * tilts[e] for e, v in enumerate(lw)]
        den = sum(wts)
        play = sum(w * x for w, x in zip(wts, xs)) / den
        plays.append(play)
        losses = []
        for e in range(5):
            eta = tilts[e]
            ip = (xs[e] - play) * g
            if kinds[e] == "c":
                losses.append(eta * ip + eta**2)
            elif kinds[e] == "s":
                losses.append(eta * ip + eta**2 * (xs[e] - play) ** 2)
            else:
                losses.append(eta * ip + (eta * ip) ** 2)
        sh = [lw[e] - losses[e] for e in range(5)]
        m2 = max(sh)
        z = m2 + math.log(sum(math.exp(v - m2) for v in sh))
        lw = [v - z for v in sh]
        logphi += z
        lw_hist.append(list(lw))
        phi_hist.append(logphi)
        xs[0] = _clamp_ball(xs[0] - (1.0 / (eta_c * math.sqrt(t))) * (eta_c * g), r)
        for e in (1, 2):
            eta = tilts[e]
            sgrad = eta * g + 2.0 * eta**2 * (xs[e] - play)
            xs[e] = _clamp_ball(xs[e] - (1.0 / (2.0 * eta**2 * t)) * sgrad, r)
        for j, e in enumerate((3, 4)):
            eta = tilts[e]
            ip = (xs[e] - play) * g
            ge = (eta + 2.0 * eta**2 * ip) * g
            assert abs(ge) <= (7.0 / 25.0) * (1.0 + 1e-9)
            sig[j] += ge * ge
            av = inv[j] * ge
            inv[j] -= av * av / (1.0 + ge * av)
            target = xs[e] - (1.0 / beta) * (inv[j] * ge)
            assert abs(target) < r
            xs[e] = target

    dev = max(
        float(np.max(np.abs(trace.plays[:, 0] - np.array(plays)))),
        float(np.max(np.abs(trace.expert_points[:, :, 0] - np.array(pts_hist)))),
        float(np.max(np.abs(np.array(lw_engine) - np.array(lw_hist)))),
        float(np.max(np.abs(trace.log_phi - np.array(phi_hist)))),
    )

    # Maintained Newton-expert inverses stay fresh against dense re-inversion.
    rng = np.random.default_rng(77)
    params2 = ProblemParams(horizon=100, dim=3, grad_bound=1.0, diameter=1.0)
    lr = MalerLearner(params2, Ball(center=np.zeros(3), radius=0.5))
    for _ in range(100):
        lr.predict()
        gdir = rng.standard_normal(3)
        lr.observe(gdir / np.linalg.norm(gdir) * rng.uniform(0.2, 1.0))
    drift = float(np.max(np.abs(lr.bank.sigma_inv - np.linalg.inv(lr.bank.sigma))))

    ok = dev <= 1e-12 and drift <= 1e-8
    _verdict(7, ok, f"straight-line replay max deviation {dev:.2e} <= 1e-12, "
                    f"rank-one inverse drift {drift:.2e} <= 1e-8 over 100 rounds")
    assert dev <= 1e-12
    assert drift <= 1e-8


def test_criterion_8_benchmark_ordering(tmp_path):
    start = time.perf_counter()
    reg_m, reg_g = [], []
    for seed in range(10):
        task = gen_regression(rounds=200, dim=50, batch=200, lam=1e-3,
                              noise_std=0.1, seed=seed)
        x_star, _ = offline_comparator(task.total, task.dset)
        base = float(np.sum([f.value(x_star) for f in task.losses]))
        for name, store in (("maler", reg_m), ("metagrad", reg_g)):
            learner = (MalerLearner(task.params, task.dset) if name == "maler"
                       else metagrad_baseline(task.params, task.dset))
            trace = run_stream(learner, task.losses)
            store.append(float(np.sum(trace.loss_at_play)) - base)

    data = tmp_path / "synthetic.libsvm"
    gen_classification_file(data, examples=4000, dim=10, seed=0)
    cls_m, cls_g = [], []
    for seed in range(5):
        task = load_classification(data, rounds=100, batch=200, radius=0.5, seed=seed)
        x_star, _ = offline_comparator(task.total, task.dset)
        base = float(np.sum([f.value(x_star) for f in task.losses]))
        for name, store in (("maler", cls_m), ("metagrad", cls_g)):
            learner = (MalerLearner(task.params, task.dset) if name == "maler"
                       else metagrad_baseline(task.params, task.dset))
            trace = run_stream(learner, task.losses)
            store.append(float(np.sum(trace.loss_at_play)) - base)
    elapsed = time.perf_counter() - start

    mr, gr = float(np.mean(reg_m)), float(np.mean(reg_g))
    mc, gc = float(np.mean(cls_m)), float(np.mean(cls_g))
    ok = mr < gr and mc < gc and elapsed < 600.0
    _verdict(8, ok, f"mean final regret, regression {mr:.3f} < {gr:.3f} (10 seeds); "
                    f"classification {mc:.3f} < {gc:.3f} (5 seeds); {elapsed:.0f}s")
    assert mr < gr
    assert mc < gc
    assert elapsed < 600.0


def test_criterion_9_grid_construction():
    grid = build_grid(ProblemParams(horizon=200, dim=3, grad_bound=1.0, diameter=1.0))
    total = float(np.sum(np.exp(grid.log_priors)))
    ok = grid.size == 11 and abs(total - 1.0) <= 1e-12
    _verdict(9, ok, f"T=200 grid has {grid.size} experts, priors sum to 1 "
                    f"within {abs(total - 1.0):.1e}")
    assert grid.size == 11
    assert abs(total - 1.0) <= 1e-12
