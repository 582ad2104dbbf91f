"""The benchmark's workloads: input set-up, timed jobs and the correctness gate.

Every workload is a closed loop of iterations, one job at a time: a `run`
job (all learners on one task), a `certify` job on the maler trace, and a
latency pass that drives a fresh MalerLearner over the same loss stream.
A job fails if it raises, exits non-zero, fails a certificate, writes the
wrong number of CSV rows or trace rounds, misses the recorded per-algo
regret (default seed only), or, for the latency pass, does not replay the
run's maler plays. A failed job is counted, never timed.

The end-to-end timings are scaled to a reference host speed (see HostClock):
on a shared host the same code runs up to a third slower for tens of seconds
at a time, and that drift, not the program, would otherwise set the spread
between runs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from maler import cli, core, experts, harness, libsvm, meta, surrogates, universal
from maler.universal import MalerLearner

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
REGRET_RTOL = 1e-9
PLAY_ATOL = 1e-12
SETUP_REPS = 5
MIN_ROUND_SAMPLES = 1000  # so the p99 has at least ten samples beyond it
CERTIFY_REPS = 3
TICK_REF_S = 0.036  # s; within the tick medians seen on the development VM
TICK_EVERY = 250  # rounds between host ticks inside a latency pass

ALGOS = {
    "regression": ("maler", "metagrad", "ogd-convex", "ogd-sc", "ons"),
    "classification": ("maler", "metagrad", "ogd-convex", "ons"),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: task shape, and whether it goes through the CLI."""

    name: str
    task: str
    rounds: int
    dim: int
    examples: int = 0
    via_cli: bool = True

    @property
    def algos(self) -> tuple:
        return ALGOS[self.task]


WORKLOADS = {
    # `maler run` + `maler certify` at d=50: per-round Python overhead and
    # heavy JSON trace I/O; few weighted projections leave the ball.
    "reg-stream": Workload("reg-stream", "regression", rounds=1000, dim=50),
    # Library use at d=200, no files: d^2/d^3 linear algebra (the SPD
    # Cholesky in every weighted projection, Sherman-Morrison updates).
    "reg-wide": Workload("reg-wide", "regression", rounds=300, dim=200, via_cli=False),
    # LIBSVM parsing, logistic loss, the iterative comparator, and the
    # eigh+bisection projection path (most Newton targets leave the ball).
    "cls-libsvm": Workload("cls-libsvm", "classification", rounds=1000, dim=10, examples=4000),
}


class JobFailed(Exception):
    """A job ran but its outputs are wrong."""


def load_reference(wl: Workload, seed: int) -> Optional[dict]:
    """Per-algo final regrets recorded for the default workload at the default seed."""
    if seed != DEFAULT_SEED or WORKLOADS.get(wl.name) != wl:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[wl.name]


def final_regrets(csv_text: str, wl: Workload) -> dict:
    """Check the CSV shape and return each algo's cumulative regret at round T."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != harness.CSV_HEADER:
        raise JobFailed("results.csv header is wrong")
    if len(lines) != 1 + wl.rounds * len(wl.algos):
        raise JobFailed(f"results.csv has {len(lines) - 1} rows, expected "
                        f"{wl.rounds * len(wl.algos)}")
    rows: dict = {}
    last: dict = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[1]] = rows.get(cells[1], 0) + 1
        last[cells[1]] = float(cells[2])
    if rows != {a: wl.rounds for a in wl.algos}:
        raise JobFailed(f"results.csv rows per algo {rows}")
    return last


def check_regrets(regrets: dict, reference: Optional[dict]) -> None:
    if reference is None:
        return
    for algo, want in reference.items():
        got = regrets.get(algo)
        if got is None or abs(got - want) > REGRET_RTOL * abs(want):
            raise JobFailed(f"{algo} final regret {got!r} != reference {want!r}")


def _call_cli(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise JobFailed(f"maler {argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")


class WorkloadRun:
    """Inputs and per-job state of one workload at one seed."""

    def __init__(self, wl: Workload, seed: int, workdir: str,
                 reference: Optional[dict] = None):
        self.wl = wl
        self.seed = seed
        self.reference = reference
        self.data_path = os.path.join(workdir, "train.libsvm")
        self.out_dir = os.path.join(workdir, "out")
        self.trace_path = os.path.join(self.out_dir, "trace_maler.json")
        self.task = None
        self.maler_trace = None
        self.maler_plays = None
        self.regrets: dict = {}

    def make_inputs(self) -> None:
        """Generate the workload's inputs from the seed (the timed set-up)."""
        wl = self.wl
        if wl.task == "regression":
            self.task = harness.gen_regression(rounds=wl.rounds, dim=wl.dim, seed=self.seed)
        else:
            harness.gen_classification_file(self.data_path, examples=wl.examples,
                                            dim=wl.dim, seed=self.seed)
            self.task = harness.load_classification(self.data_path, rounds=wl.rounds,
                                                    seed=self.seed)

    def run_job(self, rec: spans.Recorder) -> tuple:
        """One `run`; returns (seconds, bytes written, {output: sha256})."""
        wl = self.wl
        if not wl.via_cli:
            cfg = harness.ExperimentConfig(task=wl.task, algos=wl.algos, rounds=wl.rounds,
                                           dim=wl.dim, seed=self.seed)
            with rec.span("phase.run") as sp:
                result = harness.run_experiment(cfg)
            for algo, reports in result.certificates.items():
                bad = [r.name for r in reports if not r.ok]
                if bad:
                    raise JobFailed(f"{algo} certificates failed: {bad}")
            for algo, trace in result.traces.items():
                if trace.rounds != wl.rounds:
                    raise JobFailed(f"{algo} trace has {trace.rounds} rounds")
            csv_text = "\n".join(result.csv_rows) + "\n"
            self.regrets = final_regrets(csv_text, wl)
            check_regrets(self.regrets, self.reference)
            self.maler_trace = result.traces["maler"]
            self.maler_plays = self.maler_trace.plays
            digest = {"results.csv": hashlib.sha256(csv_text.encode()).hexdigest()}
            return sp.duration_ns / 1e9, 0, digest

        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = ["run", "--task", wl.task, "--algos", ",".join(wl.algos),
                "--rounds", str(wl.rounds), "--seed", str(self.seed), "--out", self.out_dir]
        argv += ["--dim", str(wl.dim)] if wl.task == "regression" else ["--data", self.data_path]
        with rec.span("phase.run") as sp:
            _call_cli(argv)
        digest, written = {}, 0
        for fname in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, fname), "rb") as fh:
                blob = fh.read()
            written += len(blob)
            digest[fname] = hashlib.sha256(blob).hexdigest()
        with open(os.path.join(self.out_dir, "results.csv"), encoding="utf-8") as fh:
            self.regrets = final_regrets(fh.read(), wl)
        check_regrets(self.regrets, self.reference)
        trace = harness.load_trace(self.trace_path)
        if trace.rounds != wl.rounds:
            raise JobFailed(f"trace_maler.json has {trace.rounds} rounds")
        self.maler_plays = trace.plays
        return sp.duration_ns / 1e9, written, digest

    def certify_job(self, rec: spans.Recorder) -> float:
        """Certify the maler trace; returns seconds."""
        if not self.wl.via_cli:
            with rec.span("phase.certify") as sp:
                _, ok = harness.certify_trace(self.maler_trace)
            if not ok:
                raise JobFailed("certify_trace reported a failing certificate")
            return sp.duration_ns / 1e9
        with rec.span("phase.certify") as sp:
            _call_cli(["certify", "--trace", self.trace_path])
        return sp.duration_ns / 1e9

    def latency_pass(self, clock: Optional["HostClock"] = None) -> tuple:
        """Per-round predict+observe latency (ms) of a MalerLearner on the stream.

        Returns (samples, scales). With a clock, it ticks before the first
        round, after the last, and every TICK_EVERY rounds in between, outside
        the timed calls; scales[t] takes round t to the reference speed from
        the two ticks around it. Without a clock the scales are all 1.
        """
        learner = MalerLearner(self.task.params, self.task.dset)
        n = len(self.task.losses)
        samples = np.empty(n)
        scales = np.ones(n)
        clock_ns = time.perf_counter_ns
        tick = clock.tick() if clock else 0.0
        seg = 0
        for t, f in enumerate(self.task.losses):
            t0 = clock_ns()
            x = learner.predict()
            t1 = clock_ns()
            g = f.gradient(x)
            t2 = clock_ns()
            learner.observe(g)
            t3 = clock_ns()
            samples[t] = ((t1 - t0) + (t3 - t2)) / 1e6
            if clock and (t + 1 == n or (t + 1) % TICK_EVERY == 0):
                before, tick = tick, clock.tick()
                scales[seg:t + 1] = clock.scale(before, tick)
                seg = t + 1
        plays = learner.trace().plays
        if plays.shape != self.maler_plays.shape:
            raise JobFailed(f"latency pass played {plays.shape}, run {self.maler_plays.shape}")
        gap = float(np.max(np.abs(plays - self.maler_plays)))
        if gap > PLAY_ATOL:
            raise JobFailed(f"latency pass plays differ from the run's by {gap:.3e}")
        return samples, scales


class Tally:
    """Attempted and failed jobs, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def attempt(self, job, *args):
        """Run one job; returns its result, or None when it failed."""
        self.attempted += 1
        gc.collect()  # start every job from the same heap, not the last job's garbage
        try:
            return job(*args)
        except Exception as exc:  # a failed job is counted, whatever it raised
            self.failed += 1
            self.errors.append(f"{job.__name__}: {type(exc).__name__}: {exc}")
            return None


class HostClock:
    """Gauges the host's current speed with a fixed calibration loop.

    A tick runs the same work on every call, in three equal parts: small
    LAPACK calls (eigh, Cholesky), numpy calls mixed with dict updates, and
    a plain interpreter loop. These are the kinds of work the maler jobs are
    made of, and on the shared development host the mix slowed down in step
    with maler rounds (log-log slope 0.96-0.99). A job timed between two
    ticks is scaled by TICK_REF_S / (mean of the two ticks): the time it
    would have taken with the host at its reference speed. The loop is the
    benchmark's own code, so a change to the program moves the scaled time
    and leaves the ticks be.
    """

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((12, 12))
        self._a = a @ a.T + np.eye(12)
        self._v = np.ones(12)
        self.ticks: list = []

    def tick(self) -> float:
        a, v = self._a, self._v
        t0 = time.perf_counter_ns()
        for _ in range(500):
            np.linalg.eigh(a)
            np.linalg.cholesky(a)
        for _ in range(150):
            w, vecs = np.linalg.eigh(a)
            x = vecs @ (v / (w + 1.0))
            np.linalg.cholesky(np.outer(x, x) + a)
            table: dict = {}
            for i in range(60):
                table[i] = i * 0.5
                sum(table.values())
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        seconds = (time.perf_counter_ns() - t0) / 1e9
        self.ticks.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking a time measured between two ticks to the reference speed."""
        return 2.0 * TICK_REF_S / (before + after)

    def timed(self, tally: "Tally", job, *args):
        """Attempt job between two ticks; returns (result or None, scale)."""
        before = self.tick()
        result = tally.attempt(job, *args)
        return result, self.scale(before, self.tick())


def timed_setup(run: WorkloadRun, clock: HostClock, reps: int = SETUP_REPS) -> tuple:
    """Generate the inputs reps times between ticks.

    Returns (scaled seconds, wall seconds), one entry per repetition.
    """
    scaled, wall = [], []
    for _ in range(reps):
        before = clock.tick()
        t0 = time.perf_counter_ns()
        run.make_inputs()
        wall.append((time.perf_counter_ns() - t0) / 1e9)
        scaled.append(wall[-1] * clock.scale(before, clock.tick()))
    return scaled, wall


def _fill(deadline: float, body, estimate: float) -> None:
    """Call body() while one more call, lasting about as long as the last, fits."""
    while time.perf_counter() + estimate <= deadline:
        t0 = time.perf_counter()
        body()
        estimate = time.perf_counter() - t0


def _median(values) -> Optional[float]:
    return statistics.median(values) if values else None


def measure(run: WorkloadRun, seconds: float, import_s: float) -> dict:
    """Untraced run: set-up, then jobs for the given seconds.

    Full iterations (run, certify, latency pass) come first; the time left
    when no full iteration fits goes to more certify jobs and latency passes.
    Every job is timed between two host ticks and scaled to the reference
    speed; the unscaled medians are returned as "wall".
    """
    tally = Tally()
    clock = HostClock()
    import_scale = TICK_REF_S / clock.tick()
    setup, setup_wall = timed_setup(run, clock)
    rec = spans.Recorder()
    run_s, cert_s, written, lat = [], [], [], []
    run_wall, cert_wall, lat_wall = [], [], []
    last = {"checks": 0.0}

    def latency_pass() -> None:
        got = tally.attempt(run.latency_pass, clock)
        if got is not None:
            lat_wall.append(got[0])
            lat.append(got[0] * got[1])

    def checks() -> None:
        t0 = time.perf_counter()
        for _ in range(CERTIFY_REPS):
            cs, scale = clock.timed(tally, run.certify_job, rec)
            if cs is None:
                break
            cert_wall.append(cs)
            cert_s.append(cs * scale)
        else:
            latency_pass()
        last["checks"] = time.perf_counter() - t0

    def iteration() -> None:
        job, scale = clock.timed(tally, run.run_job, rec)
        if job is None:
            return
        run_wall.append(job[0])
        run_s.append(job[0] * scale)
        written.append(job[1])
        checks()

    start = time.perf_counter()
    iteration()
    _fill(start + seconds, iteration, time.perf_counter() - start)
    if not tally.failed:
        _fill(start + seconds, checks, last["checks"])
    while not tally.failed and sum(map(len, lat)) < MIN_ROUND_SAMPLES:
        latency_pass()
    rounds = np.concatenate(lat) if lat else np.empty(0)
    rounds_wall = np.concatenate(lat_wall) if lat_wall else np.empty(0)

    def pct(values: np.ndarray, q: float) -> Optional[float]:
        return float(np.percentile(values, q)) if values.size else None

    metrics = {
        "setup_s": (import_s * import_scale + statistics.median(setup), "s"),
        "run_s": (_median(run_s), "s"),
        "certify_s": (_median(cert_s), "s"),
        "maler_round_ms_p50": (pct(rounds, 50), "ms"),
        "maler_round_ms_p90": (pct(rounds, 90), "ms"),
        "maler_round_ms_p99": (pct(rounds, 99), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "out_mib": ((_median(written) or 0) / 2**20, "MiB"),
        "fail_frac": (tally.failed / tally.attempted, "ratio"),
    }
    wall = {
        "setup_s": import_s + statistics.median(setup_wall),
        "run_s": _median(run_wall),
        "certify_s": _median(cert_wall),
        "maler_round_ms_p50": pct(rounds_wall, 50),
        "maler_round_ms_p90": pct(rounds_wall, 90),
        "maler_round_ms_p99": pct(rounds_wall, 99),
        "host_tick_s": statistics.median(clock.ticks),
    }
    samples = {"setup_s": len(setup), "run_s": len(run_s), "certify_s": len(cert_s),
               "maler_round_ms": int(rounds.size), "host_ticks": len(clock.ticks)}
    return {"metrics": metrics, "wall": wall, "samples": samples, "tally": tally,
            "regrets": run.regrets}


def trace_targets() -> list:
    """(owner, attribute, span name, counts) for every layer boundary traced."""

    def module_fn(mod, attr, count=None):
        return (mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}", count)

    def weighted_path(dset, H, y):
        # The same membership test project_weighted runs first; it picks the
        # span name before the span opens, so it is charged to the caller.
        inside = dset.contains(y)
        return "core.project_weighted." + ("inside" if inside else "outside")

    targets = [
        module_fn(harness, "save_trace", lambda r, trace, path: {"bytes": os.path.getsize(path)}),
        module_fn(harness, "load_trace"),
        module_fn(harness, "csv_lines"),
        module_fn(harness, "gen_regression"),
        module_fn(harness, "load_classification"),
        module_fn(libsvm, "parse_libsvm", lambda rows, *a, **k: {"rows": len(rows)}),
        module_fn(harness, "offline_comparator",
                  lambda r, *a, **k: {"iters": r[1].iterations}),
        (harness, "run_stream", lambda learner, losses: f"harness.run_stream.{learner.algo}",
         None),
        module_fn(harness, "certificates_for"),
        module_fn(meta, "recompute_surrogate_losses"),
        module_fn(meta, "meta_regret_certificate"),
        module_fn(experts, "expert_regret_certificate"),
        module_fn(meta, "potential_certificate"),
        module_fn(universal, "regret_bound_certificate"),
        (universal.Learner, "predict", "universal.predict", None),
        (universal.Learner, "observe", "universal.observe", None),
        module_fn(meta, "aggregate_play"),
        module_fn(meta, "update_weights"),
        module_fn(experts, "convex_expert_step"),
        module_fn(experts, "spherical_expert_step"),
        module_fn(experts, "newton_expert_step"),
        module_fn(experts, "sherman_morrison_update"),
        (core.Ball, "project", "core.project", None),
        (core.Ball, "project_weighted", weighted_path, None),
    ]
    for fam in ("c", "s", "ell"):
        targets.append((surrogates, f"{fam}_value", "surrogates.value", None))
        targets.append((surrogates, f"{fam}_grad", "surrogates.grad", None))
    return targets


RUN, CERT, MALER = "phase.run", "phase.certify", "harness.run_stream.maler"
SCOPES = (RUN, CERT, MALER)


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}."""

    def get(scope, name, key="ns"):
        value = agg.get((scope, name), {}).get(key, 0)
        return value / 1e9 if key in ("ns", "self_ns") else value

    out = {
        "harness.save_trace.s": (get(RUN, "harness.save_trace"), "s"),
        "harness.save_trace.bytes": (get(RUN, "harness.save_trace", "bytes"), "bytes"),
        "harness.load_trace.s": (get(CERT, "harness.load_trace"), "s"),
        "harness.csv_lines.s": (get(RUN, "harness.csv_lines"), "s"),
        "harness.gen_regression.s": (get(RUN, "harness.gen_regression"), "s"),
        "libsvm.parse_libsvm.s": (get(RUN, "libsvm.parse_libsvm"), "s"),
        "libsvm.rows": (get(RUN, "libsvm.parse_libsvm", "rows"), "count"),
        "harness.load_classification.self_s":
            (get(RUN, "harness.load_classification", "self_ns"), "s"),
        "harness.offline_comparator.s": (get(RUN, "harness.offline_comparator"), "s"),
        "harness.offline_comparator.iters":
            (get(RUN, "harness.offline_comparator", "iters"), "count"),
    }
    for algo in ALGOS["regression"]:
        out[f"harness.run_stream.{algo}.s"] = (get(RUN, f"harness.run_stream.{algo}"), "s")
    out.update({
        "harness.certificates_for.s": (get(CERT, "harness.certificates_for"), "s"),
        "meta.recompute_surrogate_losses.s": (get(CERT, "meta.recompute_surrogate_losses"), "s"),
        "meta.recompute_surrogate_losses.calls":
            (get(CERT, "meta.recompute_surrogate_losses", "calls"), "count"),
        "meta.meta_regret_certificate.self_s":
            (get(CERT, "meta.meta_regret_certificate", "self_ns"), "s"),
        "experts.expert_regret_certificate.self_s":
            (get(CERT, "experts.expert_regret_certificate", "self_ns"), "s"),
        "meta.potential_certificate.s": (get(CERT, "meta.potential_certificate"), "s"),
        "universal.regret_bound_certificate.s":
            (get(CERT, "universal.regret_bound_certificate"), "s"),
        "universal.predict.self_s": (get(MALER, "universal.predict", "self_ns"), "s"),
        "universal.observe.self_s": (get(MALER, "universal.observe", "self_ns"), "s"),
        "universal.rounds": (get(MALER, "universal.observe", "calls"), "count"),
    })
    for name in ("meta.aggregate_play", "meta.update_weights"):
        out[f"{name}.s"] = (get(MALER, name), "s")
        out[f"{name}.calls"] = (get(MALER, name, "calls"), "count")
    out["surrogates.value.s"] = (get(MALER, "surrogates.value"), "s")
    out["surrogates.grad.s"] = (get(MALER, "surrogates.grad"), "s")
    out["surrogates.calls"] = (get(MALER, "surrogates.value", "calls")
                               + get(MALER, "surrogates.grad", "calls"), "count")
    for kind in ("convex", "spherical", "newton"):
        name = f"experts.{kind}_expert_step"
        out[f"{name}.self_s"] = (get(MALER, name, "self_ns"), "s")
        out[f"{name}.calls"] = (get(MALER, name, "calls"), "count")
    for name in ("experts.sherman_morrison_update", "core.project"):
        out[f"{name}.s"] = (get(MALER, name), "s")
        out[f"{name}.calls"] = (get(MALER, name, "calls"), "count")
    for path in ("inside", "outside"):
        name = f"core.project_weighted.{path}"
        out[f"{name}.s"] = (get(MALER, name), "s")
        out[f"{name}.calls"] = (get(MALER, name, "calls"), "count")
    calls = out["core.project_weighted.inside.calls"][0] + out["core.project_weighted.outside.calls"][0]
    out["core.project_weighted.outside_frac"] = (
        out["core.project_weighted.outside.calls"][0] / calls if calls else 0.0, "ratio")
    return out


def measure_traced(run: WorkloadRun, seconds: float) -> dict:
    """Pairs of untraced and traced run+certify iterations for seconds.

    Traced outputs must be byte-identical to untraced ones and the layer
    counts must repeat exactly across traced iterations. Layer times are
    medians over the traced iterations.
    """
    tally = Tally()
    run.make_inputs()
    targets = trace_targets()
    plain_run_s, traced_run_s, layer_runs = [], [], []

    def traced_iteration(plain_digest: dict) -> dict:
        rec = spans.Recorder()
        with spans.instrumented(rec, targets):
            t_run, _, digest = run.run_job(rec)
            run.certify_job(rec)
        if digest != plain_digest:
            raise JobFailed("traced outputs differ from untraced outputs")
        return {"run_s": t_run, "layers": layer_metrics(spans.aggregate(rec.spans, SCOPES))}

    def pair() -> None:
        plain = tally.attempt(run.run_job, spans.Recorder())
        if plain is None or tally.attempt(run.certify_job, spans.Recorder()) is None:
            return
        got = tally.attempt(traced_iteration, plain[2])
        if got is None:
            return
        plain_run_s.append(plain[0])
        traced_run_s.append(got["run_s"])
        layer_runs.append(got["layers"])

    start = time.perf_counter()
    pair()
    _fill(start + seconds, pair, time.perf_counter() - start)
    metrics: dict = {}
    counts_repeat = True
    if layer_runs:
        for name, (_, unit) in layer_runs[0].items():
            values = [lr[name][0] for lr in layer_runs]
            if unit == "s":
                metrics[name] = (statistics.median(values), unit)
            else:
                counts_repeat &= len(set(values)) == 1
                metrics[name] = (values[0], unit)
        metrics["trace.overhead_s"] = (statistics.median(traced_run_s)
                                       - statistics.median(plain_run_s), "s")
    if not counts_repeat:
        tally.errors.append("layer counts differ between traced iterations")
    return {"metrics": metrics, "samples": {"traced_iterations": len(layer_runs)},
            "tally": tally, "regrets": run.regrets, "counts_repeat": counts_repeat}
