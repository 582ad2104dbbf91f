"""Benchmark tasks, the offline comparator, and the experiment runner.

Two task families are provided: synthetic mini-batch ridge regression
(strongly convex) and mini-batch logistic classification over LIBSVM data
(exp-concave after feature scaling). The runner replays one gradient
stream through any subset of learners against a shared offline comparator
and emits a per-round CSV, JSON traces, certificate results, and an
optional SVG regret plot.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Optional

import numpy as np

from . import libsvm, svgplot, universal
from .core import Ball, ProblemParams, Quadratic, positive_float, projected_gradient
from .experts import expert_regret_certificate
from .meta import (
    CertificateReport,
    CertificateRow,
    RunTrace,
    meta_regret_certificate,
    potential_certificate,
)
from .universal import (
    Learner,
    make_learner,
    play_round,
    regret_bound_certificate,
    regret_diagnostics,
)

CSV_HEADER = "round,algo,cum_regret,V_s,V_ell,log_phi"


class RidgeBatchLoss(Quadratic):
    """f(w) = (1/n) sum_i (w^T x_i - y_i)^2 + lam ||w||^2, 2*lam strongly convex.

    Keeps only the quadratic form, M = X^T X / n, q = -2 X^T y / n, r = y^T y / n
    and iso = lam, and grad_bound, the analytic sup of ||gradient|| over the
    origin-centered ball of the given radius.
    """

    def __init__(self, X, y, lam: float, radius: float):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n = X.shape[0]
        super().__init__(q=-2.0 * (X.T @ y / n), r=float(y @ y) / n, iso=lam, M=X.T @ X / n)
        norms = np.linalg.norm(X, axis=1)
        spread = float(np.sum(norms * (radius * norms + np.abs(y))))
        self.grad_bound = (2.0 / n) * spread + 2.0 * lam * radius


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) = max(z, 0) + log1p(e^-|z|), which never overflows. It gives
    # the same floats as splitting on z > 0: there the two terms are those of
    # z + log1p(e^-z), and float addition commutes; for z <= 0, max(z, 0) is a
    # zero, and adding a zero to log1p(e^z) >= 0 changes no bit; a NaN stays NaN.
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm; a row whose squared norm overflows, or a nonzero one
    whose squared norm underflows to 0, is divided by its largest entry first."""
    norms = np.linalg.norm(X, axis=1)
    for i in np.flatnonzero((norms == math.inf) | (norms == 0.0)):
        top = float(np.abs(X[i]).max())
        if top > 0.0:
            norms[i] = top * float(np.linalg.norm(X[i] / top))
    return norms


class LogisticBatchLoss:
    """f(w) = (1/per_round) sum_i c_i log(1 + exp(-z_i^T w)) over the rows z_i = y_i x_i of Z.

    Z = diag(y) X is the batch with its rows pre-multiplied by their labels,
    per_round the batch size and counts the weights c_i: 1 for a round's
    batch mean, and for a summed stream how many of its batches hold row i.
    Z is only read, so it may be a read-only view that other losses share.
    """

    def __init__(self, Z, per_round: int, counts=1.0):
        self.Z = np.asarray(Z, dtype=float)
        self.per_round = per_round
        self.counts = np.asarray(counts, dtype=float)

    def value(self, x) -> float:
        terms = _log1pexp(-(self.Z @ np.asarray(x, dtype=float)))
        return float(np.sum(self.counts * terms)) / self.per_round

    def gradient(self, x) -> np.ndarray:
        # sigmoid(-m) = 1/(1+e^m) with margins m = Z x
        s = 1.0 / (1.0 + np.exp(np.clip(self.Z @ np.asarray(x, dtype=float), -700, 700)))
        return -(self.Z.T @ (self.counts * s)) / self.per_round

    @property
    def grad_bound(self) -> float:
        """Analytic cap (1/per_round) sum_i c_i ||z_i|| on the gradient norm."""
        return float(np.sum(self.counts * _row_norms(self.Z))) / self.per_round

    @property
    def smoothness(self) -> float:
        """Lipschitz constant of the gradient, lambda_max(Z^T diag(c) Z) / (4 per_round).

        The Hessian is (1/per_round) Z^T diag(c s (1 - s)) Z with s (1 - s) <= 1/4.
        """
        H = (self.Z.T * self.counts) @ self.Z
        return float(np.linalg.eigvalsh(H)[-1]) / (4.0 * self.per_round)


@dataclass
class ComparatorReport:
    """How the offline comparator was found and how good it is: gap bounds
    its value minus the minimum of the summed loss over the ball."""

    iterations: int
    gap: float
    value: float


def offline_comparator(total, dset: Ball):
    """Minimize a stream's summed loss, such as Task.total, over the ball.

    A Quadratic starts from its exact minimizer, a LogisticBatchLoss from
    the origin's projection; core.projected_gradient then steps 1/L with
    the sum's smoothness L until a step moves the point by at most PGD_TOL,
    and returns the duality gap at the point it stops.
    Returns (x_star, ComparatorReport).
    """
    if isinstance(total, Quadratic):
        u = total.minimize(dset)
    else:
        u = dset.project(np.zeros(dset.dim))
    u, used, gap = projected_gradient(total, dset, total.smoothness, u)
    return u, ComparatorReport(iterations=used, gap=gap, value=total.value(u))


def sample_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """Draw count points uniformly from the origin-centered ball."""
    z = rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return z / norms * radii


@dataclass
class Task:
    """One loss stream, its sum total (the offline comparator's objective), the decision
    set and the problem, the losses' curvature moduli included."""

    losses: list
    total: Quadratic | LogisticBatchLoss
    dset: Ball
    params: ProblemParams


def gen_regression(rounds: int = 200, dim: int = 50, batch: int = 200,
                   lam: float = 1e-3, noise_std: float = 0.1,
                   seed: int = 0) -> Task:
    """Sample the regression stream: hidden w in a diameter-1 ball, features
    in a diameter-10 ball, Gaussian label noise, fresh batch per round.

    Raises ValueError unless lam is finite and > 0 and noise_std finite and
    >= 0; also, naming both flags, if the stream's arithmetic overflows or
    ProblemParams refuses its G and moduli 2 lam and 2 lam / G^2.
    """
    if min(rounds, dim, batch) < 1:
        raise ValueError(f"rounds, dim and batch must be >= 1, got {rounds}, {dim}, {batch}")
    positive_float("lam (--lambda)", lam)
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std (--noise-std) must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    r_w, r_x = 0.5, 5.0
    w_star = sample_ball(rng, 1, dim, r_w)[0]
    dset = Ball(center=np.zeros(dim), radius=r_w)
    losses, total = [], None
    g_bound = 0.0
    inputs = f"lam (--lambda) {lam:g} and noise_std (--noise-std) {noise_std:g}"
    try:
        # numpy raises on overflow here, as g_bound**2 does, so no inf is summed.
        with np.errstate(over="raise"):
            for _ in range(rounds):
                X = sample_ball(rng, batch, dim, r_x)
                y = X @ w_star + noise_std * rng.standard_normal(batch)
                f = RidgeBatchLoss(X, y, lam, r_w)
                losses.append(f)
                total = f if total is None else total + f
                g_bound = max(g_bound, f.grad_bound)
            exp_concavity = 2.0 * lam / g_bound**2
    except (FloatingPointError, OverflowError):
        raise ValueError(f"{inputs} overflow the losses or their exp-concavity 2 lam / G^2") \
            from None
    try:
        params = ProblemParams(horizon=rounds, dim=dim, grad_bound=g_bound, diameter=2 * r_w,
                               sc_modulus=2.0 * lam, exp_concavity=exp_concavity)
    except ValueError as exc:
        raise ValueError(f"{inputs} set the curvature moduli out of range: {exc}") from None
    return Task(losses, total, dset, params)


def load_classification(path, rounds: int = 100, batch: int = 200,
                        radius: float = 0.5, seed: int = 0) -> Task:
    """Build the classification stream: features scaled into the unit ball,
    rows shuffled by seed, batches cycling through the file.

    Round t's batch is the examples t*batch .. (t+1)*batch - 1, modulo the
    example count m. Every batch is a read-only view of one array, the
    signed rows y_i x_i followed by the first batch - 1 of them again, so
    the stream takes O((m + batch) d) memory for any number of rounds. The
    summed loss is one loss over the m distinct rows, row i weighted by how
    often the batches hold it: stacked row n of the rounds is row n mod m.
    """
    if min(rounds, batch) < 1:
        raise ValueError(f"rounds and batch must be >= 1, got {rounds}, {batch}")
    rows = libsvm.parse_libsvm(path)
    if not rows:
        raise ValueError(f"no examples in {path}")
    X, y = libsvm.to_dense(rows)
    with np.errstate(over="ignore"):  # a squared norm that overflows is taken again
        norms = _row_norms(X)
    scale = float(np.max(norms))
    if scale == math.inf:
        raise ValueError(f"example {int(np.argmax(norms)) + 1} of {path} has a feature norm "
                         "past the float range")
    if scale > 0:
        X = X / scale
    rng = np.random.default_rng(seed)
    order = rng.permutation(X.shape[0])
    X, y = X[order], y[order]
    m = X.shape[0]
    Z = X * y[:, None]
    base = Z[np.arange(m + batch - 1) % m]
    base.flags.writeable = False
    base_norms = _row_norms(base)  # each batch's grad_bound, with each row norm taken once
    losses = []
    g_bound = 0.0
    for t in range(rounds):
        lo = t * batch % m
        losses.append(LogisticBatchLoss(base[lo : lo + batch], batch))
        g_bound = max(g_bound, float(np.sum(base_norms[lo : lo + batch])) / batch)
    N = rounds * batch
    total = LogisticBatchLoss(base[:m], batch, counts=N // m + (np.arange(m) < N % m))
    dset = Ball(center=np.zeros(X.shape[1]), radius=radius)
    # D is checked at G = 1, the largest G of rows scaled into the unit ball, so
    # a G refused after it is too small for the floats.
    params = ProblemParams(horizon=rounds, dim=X.shape[1], grad_bound=1.0, diameter=2 * radius)
    try:
        params = replace(params, grad_bound=g_bound)
    except ValueError as exc:
        if not Z[:N].any():  # every row the rounds use is zero, and so is G
            raise
        raise ValueError(f"the gradient bound G = {g_bound:g} of the --data file {path} "
                         f"underflows: {exc}") from None
    try:
        params = replace(params, exp_concavity=math.exp(-radius))  # the logistic losses' alpha
    except ValueError as exc:
        raise ValueError(f"radius (--radius) {radius:g} sets the curvature moduli out of range: "
                         f"{exc}") from None
    return Task(losses, total, dset, params)


def gen_classification_file(path, examples: int = 4000, dim: int = 10, seed: int = 0) -> None:
    """Write a synthetic linearly-separable-with-noise LIBSVM file."""
    if min(examples, dim) < 1:
        raise ValueError(f"examples and dim must be >= 1, got {examples}, {dim}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((examples, dim))
    margins = X @ w + 0.3 * rng.standard_normal(examples)
    y = np.where(margins >= 0, 1.0, -1.0)
    cols = range(1, dim + 1)
    rows = []
    for label, x in zip(y.tolist(), X):
        x = x.tolist()
        # compress keeps the nonzero entries, as np.nonzero does.
        rows.append(libsvm.LibsvmRow(label=label, indices=tuple(compress(cols, x)),
                                     values=tuple(compress(x, x))))
    libsvm.write_libsvm(rows, path)


def run_stream(learner: Learner, losses) -> RunTrace:
    """Drive one learner through the full loss stream and attach true losses."""
    vals = []
    for f in losses:
        _, v, _ = play_round(learner, f)
        vals.append(v)
    trace = learner.trace()
    trace.loss_at_play = np.array(vals)
    return trace


def certificates_for(trace: RunTrace) -> list:
    """The certificate reports of this trace's learner and comparator, the assumptions aside."""
    reports = []
    if trace.grid is not None:
        reports.append(potential_certificate(trace))
    if trace.grid is not None and trace.grid.style == "maler":
        reports.append(meta_regret_certificate(trace))
        reports.append(expert_regret_certificate(trace))
        if trace.comparator is not None:
            reports.append(regret_bound_certificate(trace))
    return reports


def _dset_to_json(ball: Ball) -> dict:
    return {"kind": "ball", "center": ball.center.tolist(), "radius": ball.radius}


def _dset_from_json(obj: dict) -> Ball:
    if obj["kind"] != "ball":
        raise ValueError(f"unknown decision set kind {obj['kind']!r}")
    return Ball(center=_float_array("dset.center", obj["center"]), radius=obj["radius"])


def _float_array(name: str, value) -> np.ndarray:
    """value, nested JSON lists of numbers, as a float array; ValueError naming name for an
    entry that is not a JSON number (true, a string, null or an object) or is an integer
    too large for a float."""
    stack = [value]
    while stack:
        entry = stack.pop()
        if type(entry) is list:
            stack.extend(entry)
        elif type(entry) not in (int, float):
            raise ValueError(f"{name} holds {json.dumps(entry)}, not a number")
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} holds an integer too large for a float") from None


# Every array of a RunTrace, in the order save_trace writes them; the four
# GRID_ARRAYS are recorded by an ensemble only, the others by every learner.
TRACE_ARRAYS = ("plays", "grads", "expert_points", "surrogate_losses", "log_weights", "log_phi",
                "loss_at_play", "loss_at_comparator", "comparator")
GRID_ARRAYS = TRACE_ARRAYS[2:6]

# Layout version save_trace writes; a trace without the key is the legacy
# layout, every array a nested JSON list.
TRACE_FORMAT = 2

# The problem's curvature moduli, top-level keys of a trace: a positive number,
# or null (or absent, in traces written before they were recorded).
TRACE_MODULI = ("sc_modulus", "exp_concavity")


# Raw bytes _write_array base64-encodes at a time. A multiple of 3, so the
# pieces join, with no padding between them, into the one-shot encoding.
TRACE_CHUNK = 3 * 2**16


def _write_array(fh, arr) -> None:
    """Write {"shape": ..., "f8": ...}: the array's raw little-endian float64 bytes
    in base64, encoded TRACE_CHUNK bytes at a time."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    raw = a.reshape(-1).view(np.uint8)
    fh.write(b'{"shape": %s, "f8": "' % json.dumps(list(a.shape)).encode("ascii"))
    for lo in range(0, raw.size, TRACE_CHUNK):
        fh.write(base64.b64encode(raw[lo : lo + TRACE_CHUNK]))
    fh.write(b'"}')


def _decode_array(obj) -> np.ndarray:
    """Inverse of _write_array, as a writable native float array; ValueError if malformed."""
    if not isinstance(obj, dict) or set(obj) != {"shape", "f8"}:
        raise ValueError("an array must be an object with exactly the keys 'shape' and 'f8'")
    shape, data = obj["shape"], obj["f8"]
    if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise ValueError(f"array shape must be a list of non-negative integers, got {shape!r}")
    if not isinstance(data, str):
        raise ValueError("array data 'f8' must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise ValueError(f"array data 'f8' is not valid base64: {exc}") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ValueError(f"array of shape {shape} needs {size} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def save_trace(trace: RunTrace, path) -> None:
    """Serialize a trace to one line of JSON: problem data as JSON values, then
    each of TRACE_ARRAYS as _write_array or null.

    The arrays are streamed to the file, so writing holds no copy of the
    document, only one encoded chunk.
    """
    obj = {
        "format": TRACE_FORMAT,
        "algo": trace.algo,
        "params": {
            "horizon": trace.params.horizon,
            "dim": trace.params.dim,
            "grad_bound": trace.params.grad_bound,
            "diameter": trace.params.diameter,
        },
        "dset": _dset_to_json(trace.dset),
        "grid_style": trace.grid.style if trace.grid is not None else None,
    }
    for name in TRACE_MODULI:
        obj[name] = getattr(trace.params, name)
    # The metadata object, left open (no closing brace) for the array members.
    # json.dumps escapes all non-ASCII, so the text is its own UTF-8 encoding.
    head = json.dumps(obj)
    with open(path, "wb") as fh:
        fh.write(head[:-1].encode("ascii"))
        for name in TRACE_ARRAYS:
            fh.write(b", %s: " % json.dumps(name).encode("ascii"))
            arr = getattr(trace, name)
            if arr is None:
                fh.write(b"null")
            else:
                _write_array(fh, arr)
        fh.write(b"}\n")


def load_trace(path) -> RunTrace:
    """Rebuild a RunTrace from save_trace's JSON or the legacy nested-list layout.

    The TRACE_MODULI load into the params, as None when null or absent. The
    arrays every learner records must fit T, d and the set before the trace's
    algo is built on its params and ball by make_learner (an ensemble's bank
    holds L d x d metrics, so a file that grows as d costs no d^2). The
    trace takes that learner's grid (None for a baseline), which grid_style
    must name; it must carry exactly the arrays that learner records: every
    one of TRACE_ARRAYS for an ensemble, all but GRID_ARRAYS otherwise.
    Raises ValueError if the file is malformed, an array is missing,
    ProblemParams refuses the params (as in `maler run`), the radius is not
    a finite positive number, the algo is not a string or make_learner
    refuses it, or the comparator lies outside the decision set.
    """
    # One byte read and one UTF-8 decode; a text-mode reader would also
    # translate newlines, which costs time and JSON does not need.
    with open(path, "rb") as fh:
        obj = json.loads(fh.read().decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError(f"trace must be a JSON object, not {type(obj).__name__}")
    legacy = "format" not in obj
    if not (legacy or type(obj["format"]) is int and obj["format"] == TRACE_FORMAT):
        raise ValueError(f"unknown trace format {obj['format']!r}")
    try:
        params = ProblemParams(**obj["params"], **{name: obj.get(name) for name in TRACE_MODULI})
        algo, style, dset = obj["algo"], obj.get("grid_style"), _dset_from_json(obj["dset"])
        if not isinstance(algo, str):
            raise ValueError(f"algo must be a string, got {algo!r}")
        decode = _float_array if legacy else lambda name, value: _decode_array(value)
        arrays = {}
        for name in (n for n in TRACE_ARRAYS if n not in GRID_ARRAYS):
            if obj.get(name) is None:
                raise ValueError(f"a trace of algo {algo!r} must carry {name}")
            arrays[name] = decode(name, obj[name])
        T, d = arrays["plays"].shape[0] if arrays["plays"].ndim else 0, params.dim
        if T > params.horizon or dset.dim != d:
            raise ValueError(f"trace of {T} rounds on a {dset.dim}-dimensional set does not "
                             f"fit horizon {params.horizon}, dimension {d}")
        if T >= 2:  # a shorter trace is refused once its learner has judged the horizon
            _check_shapes(arrays, plays=(T, d), grads=(T, d), loss_at_play=(T,),
                          loss_at_comparator=(T,), comparator=(d,))
        # A trace no learner could have written is refused, as `maler run` refuses it.
        grid = make_learner(algo, params, dset).grid
        if T < 2:
            raise ValueError(f"trace of {T} rounds is too short: its regret bounds need T >= 2")
        expected = None if grid is None else grid.style
        if style != expected:
            raise ValueError(f"algo {algo!r} runs on grid_style {expected!r}, not {style!r}")
        for name in GRID_ARRAYS:
            if (obj.get(name) is None) == (grid is not None):
                raise ValueError(f"a trace of algo {algo!r} "
                                 + (f"must carry {name}" if grid else f"carries no {name}"))
        if grid is not None:
            arrays.update((name, decode(name, obj[name])) for name in GRID_ARRAYS)
            E = grid.size
            _check_shapes(arrays, expert_points=(T, E, d), surrogate_losses=(T, E),
                          log_weights=(T, E), log_phi=(T,))
        trace = RunTrace(algo=algo, params=params, dset=dset, grid=grid, **arrays)
    # OverflowError: a JSON integer too large for a float.
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed trace: {type(exc).__name__}: {exc}") from None
    if trace.comparator is not None and not trace.dset.contains(trace.comparator):
        raise ValueError("comparator lies outside the decision set")
    return trace


def _check_shapes(arrays: dict, **want) -> None:
    """Raise ValueError naming the first of want's arrays whose shape is not as given."""
    for name, shape in want.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{name} has shape {arrays[name].shape}, expected {shape}")


# Each task's default learners; the strongly convex regression task runs every algo.
DEFAULT_ALGOS = {
    "regression": tuple(universal.LEARNERS),
    "classification": ("maler", "metagrad", "ogd-convex", "ons"),
}


@dataclass
class ExperimentConfig:
    """Everything one `run` invocation needs; algos None runs DEFAULT_ALGOS[task]."""

    task: str = "regression"
    algos: Optional[tuple] = None
    rounds: int = 200
    dim: int = 50
    batch: int = 200
    ridge_lambda: float = 1e-3
    noise_std: float = 0.1
    seed: int = 0
    data: Optional[str] = None
    radius: float = 0.5
    out: Optional[str] = None
    svg: bool = False

    def __post_init__(self):
        if self.algos is None:
            self.algos = DEFAULT_ALGOS.get(self.task, ())


@dataclass
class ExperimentResult:
    """Traces, diagnostics, and certificates of one experiment run."""

    config: ExperimentConfig
    params: ProblemParams
    comparator_report: ComparatorReport
    traces: dict
    diagnostics: dict
    certificates: dict
    csv_rows: list
    files: list = field(default_factory=list)


def _format_cell(v: float) -> str:
    return f"{v:.17g}"


def csv_lines(result: ExperimentResult) -> list:
    lines = [CSV_HEADER]
    for algo in result.traces:
        diag = result.diagnostics[algo]
        trace = result.traces[algo]
        for t in range(trace.rounds):
            phi = ""
            if trace.log_phi is not None:
                phi = _format_cell(float(trace.log_phi[t]))
            lines.append(
                ",".join(
                    [
                        str(t + 1),
                        algo,
                        _format_cell(float(diag.cum_regret[t])),
                        _format_cell(float(diag.cum_v_s[t])),
                        _format_cell(float(diag.cum_v_ell[t])),
                        phi,
                    ]
                )
            )
    return lines


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all requested learners on one stream and certify the results."""
    for i, name in enumerate(cfg.algos):  # refuse a bad algo before drawing the stream
        universal.learner_factory(name)
        if name in cfg.algos[:i]:  # each algo's trace is written to one file, trace_<algo>.json
            raise ValueError(f"--algos names {name!r} more than once")
    if cfg.seed < 0:
        raise ValueError(f"seed (--seed) must be >= 0, got {cfg.seed}")
    if cfg.task == "regression":
        task = gen_regression(rounds=cfg.rounds, dim=cfg.dim, batch=cfg.batch,
                              lam=cfg.ridge_lambda, noise_std=cfg.noise_std, seed=cfg.seed)
    elif cfg.task == "classification":
        if not cfg.data:
            raise ValueError("classification needs --data PATH (LIBSVM format)")
        task = load_classification(cfg.data, rounds=cfg.rounds, batch=cfg.batch,
                                   radius=cfg.radius, seed=cfg.seed)
    else:
        raise ValueError(f"unknown task {cfg.task!r}")

    # Refuse a learner before the comparator runs; free each learner once it has run.
    learners = {name: make_learner(name, task.params, task.dset) for name in cfg.algos}
    x_star, comp_report = offline_comparator(task.total, task.dset)
    at_comp = np.array([f.value(x_star) for f in task.losses])

    traces, diags, certs = {}, {}, {}
    for name in list(learners):
        trace = run_stream(learners.pop(name), task.losses)
        trace.comparator, trace.loss_at_comparator = x_star, at_comp
        traces[name] = trace
        diags[name] = regret_diagnostics(trace)
        certs[name] = certify_trace(trace)[0]

    result = ExperimentResult(config=cfg, params=task.params, comparator_report=comp_report,
                              traces=traces, diagnostics=diags, certificates=certs, csv_rows=[])
    result.csv_rows = csv_lines(result)
    if cfg.out:
        _write_outputs(result)
    return result


def _report_text(result: ExperimentResult) -> str:
    p = result.params
    lines = [
        f"task={result.config.task} seed={result.config.seed}",
        f"rounds={p.horizon} dim={p.dim} G={p.grad_bound:.6g} D={p.diameter:.6g}",
        "rate grid: eta_i = 2^-i/(5DG), i = 0..ceil(log2(T)/2); eta_c = 1/(2GD sqrt(T))",
        (
            f"comparator: iterations={result.comparator_report.iterations} "
            f"gap={result.comparator_report.gap:.3e} "
            f"value={result.comparator_report.value:.12g}"
        ),
    ]
    for algo, diag in result.diagnostics.items():
        lines.append(f"{algo}: final regret {diag.regret:.6f}  V_s {diag.v_s:.6f}  V_ell {diag.v_ell:.6f}")
    for algo, reports in result.certificates.items():
        lines += certify_lines(algo, reports)
    return "\n".join(lines) + "\n"


def _write_outputs(result: ExperimentResult) -> None:
    out = result.config.out
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "results.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(result.csv_rows) + "\n")
    result.files.append(csv_path)
    for algo, trace in result.traces.items():
        tpath = os.path.join(out, f"trace_{algo}.json")
        save_trace(trace, tpath)
        result.files.append(tpath)
    rpath = os.path.join(out, "report.txt")
    with open(rpath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_report_text(result))
    result.files.append(rpath)
    if result.config.svg:
        series = {algo: list(d.cum_regret) for algo, d in result.diagnostics.items()}
        spath = os.path.join(out, "regret.svg")
        with open(spath, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svgplot.render_lines(series, "cumulative regret", "round", "regret"))
        result.files.append(spath)


def certify_trace(trace: RunTrace) -> tuple:
    """Run every applicable certificate on a trace, as `maler run` and `maler certify` do.

    Returns (reports, ok). The first report checks the recorded data
    against the problem's assumptions: gradients finite and within G,
    plays inside the ball, and the ball's diameter equal to D. The other
    certificates are computed only if every assumption holds, since their
    proofs take them for granted.
    """
    p, ball = trace.params, trace.dset
    finite = np.isfinite(trace.grads)
    # A norm that overflows reads as inf and fails its row.
    with np.errstate(over="ignore"):
        past = np.linalg.norm(trace.plays - ball.center, axis=1) - ball.radius
        g_max = float(np.max(np.linalg.norm(trace.grads, axis=1), initial=0.0))
    rows = [
        CertificateRow(label="max ||g_t|| <= G", measured=g_max, bound=p.grad_cap),
        CertificateRow(label="gradients finite",
                       measured=float(np.count_nonzero(~finite)), bound=0.0),
        CertificateRow(label="max play distance past the radius",
                       measured=float(np.max(past, initial=-ball.radius)), bound=1e-9),
        CertificateRow(label="set diameter matches D",
                       measured=abs(2.0 * ball.radius - p.diameter),
                       bound=1e-9 * max(1.0, p.diameter)),
    ]
    reports = [CertificateReport(name="assumptions", rows=rows)]
    if reports[0].ok:
        reports += certificates_for(trace)
    return reports, all(r.ok for r in reports)


def certify_lines(algo: str, reports: list) -> list:
    """How `maler certify` and report.txt print one algo's reports: a line per report,
    a `violated:` line per failing row, then the verdict."""
    lines, ok = [], True
    for rep in reports:
        # A report passes exactly when it has no violated row.
        violated = [row for row in rep.rows if not row.ok]
        ok = ok and not violated
        worst = rep.worst()
        lines.append(f"[{'FAIL' if violated else 'PASS'}] {rep.name}: {len(rep.rows)} checks, "
                     f"min slack {worst.slack:.6g} at {worst.label!r}")
        lines += [f"    violated: {row.label} measured={row.measured:.12g} bound={row.bound:.12g}"
                  for row in violated]
    lines.append(f"certificates {'PASS' if ok else 'FAIL'} for algo={algo!r}")
    return lines
