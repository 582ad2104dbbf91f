import base64
import json
import math
import os
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import fd_matches, write_e278_file
from maler import cli, harness, meta, surrogates
from maler.core import PGD_ITERS, PGD_TOL, Ball, ProblemParams, Quadratic, projected_gradient
from maler.harness import (
    CSV_HEADER,
    GRID_ARRAYS,
    TRACE_ARRAYS,
    ExperimentConfig,
    LogisticBatchLoss,
    RidgeBatchLoss,
    certify_trace,
    gen_classification_file,
    gen_regression,
    load_classification,
    load_trace,
    offline_comparator,
    run_experiment,
    run_stream,
    sample_ball,
    save_trace,
)
from maler.libsvm import LibsvmFormatError, LibsvmRow, parse_libsvm, to_dense, write_libsvm
from maler.meta import build_grid
from maler.universal import MalerLearner, make_learner, regret_diagnostics


def test_loss_oracle_gradients_match_fd():
    rng = np.random.default_rng(0)
    d = 4
    X = rng.normal(size=(6, d))
    y = rng.normal(size=6)
    labels = np.sign(y) + (np.sign(y) == 0)
    g, a = rng.normal(size=d), rng.normal(size=d) * 0.2
    oracles = [
        Quadratic(q=g),
        Quadratic(q=-0.7 * a, r=0.35 * float(a @ a), iso=0.35),
        RidgeBatchLoss(X, y, lam=0.01, radius=0.5),
        LogisticBatchLoss(X * labels[:, None], 6),
    ]
    for f in oracles:
        for _ in range(10):
            x = rng.normal(size=d) * 0.5
            assert fd_matches(f.value, f.gradient, x)
            # The gradient is smoothness-Lipschitz.
            y = rng.normal(size=d) * 0.5
            gap = np.linalg.norm(f.gradient(x) - f.gradient(y))
            assert gap <= f.smoothness * np.linalg.norm(x - y) * (1 + 1e-12) + 1e-15


def test_ridge_loss_matches_naive_formula():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    f = RidgeBatchLoss(X, y, lam=0.05, radius=0.5)
    w = rng.normal(size=3)
    naive = float(np.mean((X @ w - y) ** 2)) + 0.05 * float(w @ w)
    assert f.value(w) == pytest.approx(naive, rel=1e-12)


def test_ridge_grad_bound_is_a_bound():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    f = RidgeBatchLoss(X, y, lam=0.01, radius=0.5)
    cap = f.grad_bound
    for w in sample_ball(rng, 200, 4, 0.5):
        assert np.linalg.norm(f.gradient(w)) <= cap * (1 + 1e-12)


def test_logistic_loss_is_stable_and_bounded():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 3))
    X /= np.max(np.linalg.norm(X, axis=1))
    y = np.where(rng.uniform(size=10) < 0.5, -1.0, 1.0)
    f = LogisticBatchLoss(X * y[:, None], 10)
    big = np.array([1e3, -1e3, 1e3])
    assert np.isfinite(f.value(big))
    assert np.all(np.isfinite(f.gradient(big)))
    cap = f.grad_bound
    for w in sample_ball(rng, 200, 3, 0.5):
        assert np.linalg.norm(f.gradient(w)) <= cap * (1 + 1e-12)


def _log1pexp_masked(z):
    """log(1 + e^z) split on z > 0 by masks, the formula _log1pexp replaced."""
    out = np.empty_like(z)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def test_log1pexp_matches_the_masked_formula_bit_for_bit():
    rng = np.random.default_rng(19)
    z = np.concatenate([scale * rng.standard_normal(500) for scale in (0.1, 1, 10, 100, 800)]
                       + [[0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, math.inf, -math.inf,
                           math.nan, -math.nan]])
    got, want = harness._log1pexp(z), _log1pexp_masked(z)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_logistic_stack_is_the_term_by_term_sum():
    # Weighting row i by counts[i] is the loss over the rows repeated that often.
    rng = np.random.default_rng(11)
    Z = rng.normal(size=(6, 3))
    counts = np.array([3, 0, 1, 2, 0, 5])
    total = LogisticBatchLoss(Z, 7, counts)
    stacked = LogisticBatchLoss(np.repeat(Z, counts, axis=0), 7)
    assert total.grad_bound == pytest.approx(stacked.grad_bound, rel=1e-12)
    assert total.smoothness == pytest.approx(stacked.smoothness, rel=1e-12)
    for x in rng.normal(size=(5, 3)) * 0.5:
        assert total.value(x) == pytest.approx(stacked.value(x), rel=1e-12)
        np.testing.assert_allclose(total.gradient(x), stacked.gradient(x), rtol=1e-12, atol=0)


def test_offline_comparator_linear_ball_closed_form():
    rng = np.random.default_rng(4)
    ball = Ball(center=np.zeros(2), radius=0.5)
    total = np.sum(rng.normal(size=(20, 2)), axis=0)
    x, rep = offline_comparator(Quadratic(q=total), ball)
    expect = -0.5 * total / np.linalg.norm(total)
    np.testing.assert_allclose(x, expect, atol=1e-8)
    # The gap of a linear loss at the boundary point -r g/||g|| is g^T x + r ||g|| = 0.
    assert abs(rep.gap) <= 1e-15 * np.linalg.norm(total)


def test_offline_comparator_quadratic_exact():
    rng = np.random.default_rng(5)
    ball = Ball(center=np.zeros(3), radius=0.5)
    centers = sample_ball(rng, 15, 3, 0.4)
    losses = [Quadratic(q=-0.5 * a, r=0.25 * float(a @ a), iso=0.25) for a in centers]
    x, rep = offline_comparator(sum(losses[1:], losses[0]), ball)
    mean = np.mean(centers, axis=0)
    np.testing.assert_allclose(x, ball.project(mean), atol=1e-9)
    assert rep.gap <= 1e-12 * max(1.0, abs(rep.value))


def test_offline_comparator_ridge_matches_unconstrained_solve():
    rng = np.random.default_rng(6)
    d = 3
    ball = Ball(center=np.zeros(d), radius=10.0)
    losses = []
    for _ in range(5):
        X = rng.normal(size=(20, d))
        y = rng.normal(size=20)
        losses.append(RidgeBatchLoss(X, y, lam=0.1, radius=10.0))
    x, rep = offline_comparator(sum(losses[1:], losses[0]), ball)
    # Each loss is w^T A w - 2 b^T w + c + lam w^T w, kept as M = A and q = -2 b.
    M = np.sum([f.M for f in losses], axis=0) + 0.5 * np.eye(d)
    b = -0.5 * np.sum([f.q for f in losses], axis=0)
    np.testing.assert_allclose(x, np.linalg.solve(M, b), atol=1e-7)


def test_offline_comparator_generic_mixture():
    rng = np.random.default_rng(7)
    ball = Ball(center=np.zeros(2), radius=1.0)
    # g = (0.3, -0.1), then (lam/2) ||x - a||^2 for lam, a = 1, (0.5, 0.2) and 0.5, (-0.2, 0.4).
    total = (Quadratic(q=np.array([0.3, -0.1]))
             + Quadratic(q=-np.array([0.5, 0.2]), r=0.145, iso=0.5)
             + Quadratic(q=-0.5 * np.array([-0.2, 0.4]), r=0.05, iso=0.25))
    x, rep = offline_comparator(total, ball)
    # The sum is 0.75 ||x||^2 + q^T x + r, q = g - sum lam_i a_i, minimized inside the ball.
    np.testing.assert_allclose(x, np.array([0.1, 0.5]) / 1.5, atol=1e-15)
    assert rep.gap <= 1e-12 * max(1.0, abs(rep.value))
    assert ball.contains(x)


def test_offline_comparator_converges_on_a_wide_ball(tmp_path):
    # A 1/(L_hat sqrt(k)) step, with L_hat a sampled gradient norm, stopped
    # on this radius-20 stream at its 10,000-step cap with residual 0.21.
    path = tmp_path / "small130.libsvm"
    gen_classification_file(path, examples=130, dim=5)
    task = load_classification(path, rounds=50, radius=20.0)
    x, report = offline_comparator(task.total, task.dset)
    assert report.iterations < PGD_ITERS
    assert report.gap <= 1e-12 * max(1.0, abs(report.value))
    Z = np.concatenate([f.Z for f in task.losses])
    L = float(np.linalg.eigvalsh(Z.T @ Z)[-1]) / (4 * 200)
    grad = -(Z.T @ (1.0 / (1.0 + np.exp(Z @ x)))) / 200
    assert L * np.linalg.norm(x - task.dset.project(x - grad / L)) <= 1e-9
    result = run_experiment(ExperimentConfig(task="classification", data=str(path), rounds=50,
                                             radius=20.0, algos=("maler",)))
    assert round(result.diagnostics["maler"].regret, 4) == 4.1131


def _summed_losses(rng, d):
    """A seeded sum of three PSD quadratics and one of four logistic batches, both in dimension d."""
    quads = []
    for _ in range(3):
        A = rng.normal(size=(d, d))
        quads.append(Quadratic(rng.normal(size=d), r=float(rng.normal()),
                               iso=float(rng.uniform(0.0, 0.1)), M=A @ A.T))
    return quads[0] + quads[1] + quads[2], LogisticBatchLoss(rng.normal(size=(32, d)), 8)


def _off_center_ball(rng, d):
    radius = 10.0 ** rng.uniform(-1.0, 1.0)
    c = rng.normal(size=d)
    return Ball(center=rng.uniform(0.2, 0.9) * radius * c / np.linalg.norm(c), radius=radius)


@pytest.mark.parametrize("d", range(1, 11))
def test_duality_gap_bounds_the_suboptimality_of_an_early_stop(d):
    rng = np.random.default_rng(40 + d)
    ball = _off_center_ball(rng, d)
    for total in _summed_losses(rng, d):
        x_ref, rep = offline_comparator(total, ball)
        scale = max(1.0, abs(rep.value))
        # A last move m <= PGD_TOL puts the gap below 4 L r m (as in test_core), up to rounding.
        assert rep.gap <= 4.0 * total.smoothness * ball.radius * PGD_TOL + 1e-12 * scale
        # Steps of 1e-6/L stop at the step cap, far from x_ref.
        u, steps, gap = projected_gradient(total, ball, 1e6 * total.smoothness,
                                           ball.project(np.zeros(d)))
        assert steps == PGD_ITERS
        assert total.value(u) - rep.value > 1e-6 * scale
        assert total.value(u) - rep.value <= gap + 1e-12 * scale


def test_gen_regression_shapes_and_scales(monkeypatch):
    drawn = []

    def recording_sample_ball(*args):
        drawn.append(sample_ball(*args))
        return drawn[-1]

    monkeypatch.setattr(harness, "sample_ball", recording_sample_ball)
    task = gen_regression(rounds=10, dim=4, batch=12, lam=0.01, noise_std=0.1, seed=42)
    assert len(task.losses) == 10
    assert task.params.dim == 4
    assert task.params.diameter == pytest.approx(1.0)
    assert task.params.sc_modulus == pytest.approx(0.02)
    # The first draw is the hidden weight vector; then one feature batch per round.
    assert drawn[0].shape == (1, 4) and np.linalg.norm(drawn[0]) <= 0.5 + 1e-12
    assert [X.shape for X in drawn[1:]] == [(12, 4)] * 10
    for X in drawn[1:]:
        assert np.all(np.linalg.norm(X, axis=1) <= 5.0 + 1e-12)
    for f in task.losses:
        assert f.M.shape == (4, 4)
    rng = np.random.default_rng(0)
    for f in task.losses[:3]:
        for w in sample_ball(rng, 50, 4, 0.5):
            assert np.linalg.norm(f.gradient(w)) <= task.params.grad_bound * (1 + 1e-9)


def test_task_builders_reject_non_positive_sizes(tmp_path, capsys):
    for sizes in ({"rounds": 0}, {"dim": 0}, {"batch": 0}, {"dim": -3}):
        with pytest.raises(ValueError):
            gen_regression(**{"rounds": 3, "dim": 2, "batch": 4, **sizes})
    path = tmp_path / "d.libsvm"
    for sizes in ({"examples": 0}, {"examples": -3}, {"dim": 0}):
        with pytest.raises(ValueError, match="examples and dim must be >= 1"):
            gen_classification_file(path, **{"examples": 5, "dim": 2, **sizes})
        assert not path.exists()
    gen_classification_file(path, examples=20, dim=3, seed=1)
    for sizes in ({"rounds": 0}, {"batch": 0}):
        with pytest.raises(ValueError):
            load_classification(path, **{"rounds": 3, "batch": 4, **sizes})
    for flags in (["--dim", "0"], ["--batch", "0"], ["--rounds", "0"],
                  ["--task", "classification", "--data", str(path), "--batch", "0"]):
        capsys.readouterr()
        assert cli.main(["run", "--rounds", "3", *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_run_refuses_a_horizon_the_expert_bounds_do_not_cover(tmp_path, capsys):
    # 10 d ln T is 0 at T = 1, so no expert grid is built for one round.
    path = tmp_path / "d.libsvm"
    gen_classification_file(path, examples=20, dim=3, seed=1)
    for task in (["--dim", "2"], ["--task", "classification", "--data", str(path)]):
        capsys.readouterr()
        assert cli.main(["run", "--rounds", "1", *task]) == 1
        assert capsys.readouterr().err.startswith("error: horizon T=1 is too short")
    with pytest.raises(ValueError, match="horizon T=1 is too short"):
        build_grid(ProblemParams(horizon=1, dim=2, grad_bound=1.0, diameter=1.0), "metagrad")


def test_gen_regression_deterministic():
    a = gen_regression(rounds=3, dim=2, batch=5, seed=9)
    b = gen_regression(rounds=3, dim=2, batch=5, seed=9)
    np.testing.assert_array_equal(a.losses[2].M, b.losses[2].M)
    np.testing.assert_array_equal(a.losses[2].q, b.losses[2].q)
    c = gen_regression(rounds=3, dim=2, batch=5, seed=10)
    assert not np.array_equal(a.losses[0].q, c.losses[0].q)


def test_libsvm_round_trip(tmp_path):
    rows = [
        LibsvmRow(label=1.0, indices=(1, 3), values=(0.5, -2.0)),
        LibsvmRow(label=-1.0, indices=(2,), values=(1.25,)),
        LibsvmRow(label=1.0, indices=(), values=()),
    ]
    path = tmp_path / "data.libsvm"
    write_libsvm(rows, path)
    again = parse_libsvm(path)
    assert again == rows
    X, y = to_dense(again)
    assert X.shape == (3, 3)
    assert X[0, 2] == -2.0
    np.testing.assert_array_equal(y, [1.0, -1.0, 1.0])


def test_libsvm_parse_errors(tmp_path):
    cases = [
        ("abc 1:2.0", "non-numeric label"),
        ("2 1:2.0", "label must be"),
        ("1 2:x", "non-numeric value"),
        ("1 a:2.0", "non-numeric index"),
        ("1 0:2.0", "1-based"),
        ("1 1:2.0 1:3.0", "duplicate index"),
        ("1 12", "expected index:value"),
        ("1 1:nan", "non-finite value 'nan'"),
        ("1 1:inf", "non-finite value 'inf'"),
        ("1 1:-inf", "non-finite value '-inf'"),
    ]
    for i, (line, needle) in enumerate(cases):
        path = tmp_path / f"bad{i}.libsvm"
        path.write_text("+1 1:1.0\n" + line + "\n", encoding="utf-8")
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(path)
        assert "line 2" in str(err.value)
        assert needle in str(err.value)


def test_libsvm_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "sparse.libsvm"
    path.write_text("\n# comment\n+1 1:0.5\n\n-1 2:0.25\n", encoding="utf-8")
    rows = parse_libsvm(path)
    assert len(rows) == 2
    assert rows[1].indices == (2,)


def test_libsvm_parses_crlf_tabs_indented_comments_and_unsorted_indices(tmp_path):
    path = tmp_path / "messy.libsvm"
    path.write_bytes(b"# header\r\n+1\t3:0.5 1:-2\r\n   # indented\r\n"
                     b"\t-1 5:4\t\t2:1e-3 \r\n\r\n+1\r\n")
    assert parse_libsvm(path) == [
        LibsvmRow(label=1.0, indices=(1, 3), values=(-2.0, 0.5)),
        LibsvmRow(label=-1.0, indices=(2, 5), values=(1e-3, 4.0)),
        LibsvmRow(label=1.0, indices=(), values=()),
    ]


def _per_value_line(row) -> str:
    """One row as the writer printed it with one f-string per value."""
    feats = " ".join(f"{i}:{v:.17g}" for i, v in zip(row.indices, row.values))
    label = "+1" if row.label > 0 else "-1"
    return f"{label} {feats}\n" if feats else f"{label}\n"


@pytest.mark.parametrize("examples, dim, seed", [(4000, 10, 0), (130, 5, 7)])
def test_generated_file_matches_a_per_value_writer(tmp_path, examples, dim, seed):
    # gen_classification_file's draws, turned into rows with np.nonzero.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((examples, dim))
    y = np.where(X @ w + 0.3 * rng.standard_normal(examples) >= 0, 1.0, -1.0)
    rows = []
    for x, label in zip(X, y):
        nz = np.nonzero(x)[0]
        rows.append(LibsvmRow(label=float(label), indices=tuple(int(j) + 1 for j in nz),
                              values=tuple(float(v) for v in x[nz])))
    path = tmp_path / "d.libsvm"
    gen_classification_file(path, examples=examples, dim=dim, seed=seed)
    assert path.read_bytes() == "".join(map(_per_value_line, rows)).encode()


def test_write_libsvm_matches_a_per_value_writer_on_any_number_types(tmp_path):
    rows = [
        LibsvmRow(label=1.0, indices=(np.int64(2), 7), values=(np.float64(-0.0), 3)),
        LibsvmRow(label=np.float64(-1.0), indices=(), values=()),
        LibsvmRow(label=True, indices=(1, 2, 40), values=(5e-324, 1e308, 0.1)),
        LibsvmRow(label=-1, indices=(3,), values=(np.float32(0.1),)),
        LibsvmRow(label=1.0, indices=(1, 2), values=(1 / 3, -2.5e-17)),
    ]
    path = tmp_path / "d.libsvm"
    write_libsvm(rows, path)
    assert path.read_bytes() == "".join(map(_per_value_line, rows)).encode()


@pytest.mark.parametrize("bad, reason", [
    (LibsvmRow(label=0.0, indices=(1,), values=(1.0,)), "label must be -1 or +1, got 0.0"),
    (LibsvmRow(label=math.nan, indices=(1,), values=(1.0,)), "label must be -1 or +1, got nan"),
    (LibsvmRow(label=2.0, indices=(1,), values=(1.0,)), "label must be -1 or +1, got 2.0"),
    (LibsvmRow(label=1.0, indices=(1, 2), values=(1.0,)), "2 indices but 1 values"),
    (LibsvmRow(label=-1.0, indices=(), values=(1.0,)), "0 indices but 1 values"),
], ids=["zero", "nan", "two", "short-values", "long-values"])
def test_write_libsvm_refuses_rows_it_cannot_write_faithfully(tmp_path, bad, reason):
    rows = [LibsvmRow(label=1.0, indices=(1,), values=(0.5,)),
            LibsvmRow(label=-1.0, indices=(), values=()), bad]
    with pytest.raises(ValueError) as err:
        write_libsvm(rows, tmp_path / "d.libsvm")
    assert str(err.value) == f"rows[2]: {reason}"


def test_to_dense_matches_a_per_row_fill():
    rng = np.random.default_rng(11)
    rows = [LibsvmRow(label=1.0, indices=(), values=())]
    for _ in range(200):
        # Empty rows, one-feature rows and rows with gaps, up to 12 columns.
        k = int(rng.choice([0, 1, int(rng.integers(2, 12))]))
        idx = np.sort(rng.choice(12, size=k, replace=False)) + 1
        rows.append(LibsvmRow(label=float(rng.choice([-1.0, 1.0])), indices=tuple(idx.tolist()),
                              values=tuple(rng.standard_normal(k).tolist())))
    for batch in (rows, rows[:1], []):
        d = max((r.indices[-1] for r in batch if r.indices), default=0)
        X_ref, y_ref = np.zeros((len(batch), d)), np.empty(len(batch))
        for i, r in enumerate(batch):
            y_ref[i] = r.label
            if r.indices:
                X_ref[i, np.array(r.indices) - 1] = r.values
        X, y = to_dense(batch)
        assert X.shape == X_ref.shape and X.dtype == X_ref.dtype and y.dtype == y_ref.dtype
        np.testing.assert_array_equal(X, X_ref)
        np.testing.assert_array_equal(y, y_ref)
    # Rows the one scatter would spill into their neighbours.
    good = LibsvmRow(label=1.0, indices=(1, 2), values=(1.0, 2.0))
    for indices, values, reason in [((0,), (5.0,), "1-based, got 0"),
                                    ((1, 3), (5.0,), "as many values as indices"),
                                    ((1,), (5.0, 6.0), "as many values as indices")]:
        with pytest.raises(ValueError, match=reason):
            to_dense([good, LibsvmRow(label=-1.0, indices=indices, values=values), good])


def test_load_classification(tmp_path):
    path = tmp_path / "synth.libsvm"
    gen_classification_file(path, examples=120, dim=5, seed=0)
    task = load_classification(path, rounds=4, batch=50, radius=0.5, seed=1)
    assert task.params.dim == 5
    assert task.params.diameter == pytest.approx(1.0)
    assert task.params.exp_concavity == pytest.approx(math.exp(-0.5))
    # Features scaled into the unit ball, with the max norm hitting 1.
    # Rows z_i = y_i x_i with y_i = +-1, so ||z_i|| = ||x_i||.
    all_Z = np.concatenate([f.Z for f in task.losses])
    assert np.max(np.linalg.norm(all_Z, axis=1)) <= 1.0 + 1e-12
    # 4 rounds x 50 > 120 examples requires cycling: round 2 reuses row 0.
    seen = {tuple(np.round(r, 12)) for r in task.losses[0].Z}
    reused = {tuple(np.round(r, 12)) for r in task.losses[2].Z}
    assert seen & reused
    assert len({tuple(r) for f in task.losses for r in f.Z}) == 120
    # Same seed, same stream; different seed, different order.
    again = load_classification(path, rounds=4, batch=50, radius=0.5, seed=1)
    np.testing.assert_array_equal(task.losses[0].Z, again.losses[0].Z)
    other = load_classification(path, rounds=4, batch=50, radius=0.5, seed=2)
    assert not np.array_equal(task.losses[0].Z, other.losses[0].Z)


def test_classification_scales_a_row_whose_squared_norm_overflows(tmp_path, capsys):
    # Row 16's norm is 5.9e278, but its square overflows: np.linalg.norm read inf
    # (with a RuntimeWarning), every feature was divided by it and the run was
    # refused with grad_bound 0. The row is now divided by its largest entry first.
    path = tmp_path / "e278.libsvm"
    write_e278_file(path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--task", "classification", "--data", str(path),
                         "--rounds", "20", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        for algo in ("maler", "metagrad", "ogd-convex", "ons"):
            assert cli.main(["certify", "--trace", str(out / f"trace_{algo}.json")]) == 0
        task = load_classification(path, rounds=20)
    # The long row has norm 1; the others are scaled by 1/5.9e278 but stay nonzero.
    assert np.linalg.norm(task.total.Z, axis=1).max() == pytest.approx(1.0, rel=1e-15)
    assert np.all(np.any(task.total.Z != 0.0, axis=1))
    # A file whose row norms all fit keeps the floats of one division by the largest.
    plain = tmp_path / "plain.libsvm"
    gen_classification_file(plain, examples=20, dim=3, seed=0)
    X, y = to_dense(parse_libsvm(plain))
    X = X / np.max(np.linalg.norm(X, axis=1))
    Z = (X * y[:, None])[np.random.default_rng(0).permutation(20)]
    assert np.array_equal(load_classification(plain, rounds=20).total.Z, Z)


def test_classification_names_the_data_file_whose_gradient_bound_underflows(tmp_path, capsys):
    # At --rounds 3 --batch 4 no batch holds the E278 file's long row. The other
    # rows, scaled by 1/5.9e278, have squared norms that underflow: np.linalg.norm
    # read G = 0 and the refusal blamed grad_bound. Such a row is now divided by
    # its largest entry first, and the refusal names the --data file.
    path = tmp_path / "e278.libsvm"
    write_e278_file(path)
    err = _refused(capsys, ["run", "--task", "classification", "--data", str(path),
                            "--rounds", "3", "--batch", "4"], f"of the --data file {path} underflows")
    assert err.startswith("error: the gradient bound G = 2.79141e-279 ")
    assert err.endswith("underflows: grad_bound 2.79141e-279 is out of range: G^2 = 0 must be "
                        "finite and > 0\n")
    # Only a nonzero row whose norm reads 0 takes the scaled path: a zero row
    # stays 0 and every other norm is np.linalg.norm's, bit for bit.
    X = np.array([[3e-200, 4e-200], [0.0, 0.0], [0.3, 0.4], [1e-3, 2.5]])
    norms = harness._row_norms(X)
    assert norms[0] == pytest.approx(5e-200, rel=1e-15) and norms[1] == 0.0
    assert norms[2:].tobytes() == np.linalg.norm(X[2:], axis=1).tobytes()


def test_classification_refuses_a_row_norm_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.libsvm"
    path.write_text("-1 1:1 2:1\n+1 1:1.5e308 2:1.5e308\n")
    assert cli.main(["run", "--task", "classification", "--data", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: example 2 of {path} has a feature norm past "
                                       "the float range\n")


def _batches_copied_per_round(path, rounds, batch, seed):
    """Each round's signed batch X[idx] * y[idx][:, None] as a fresh array, the
    construction load_classification used before its batches became views."""
    X, y = to_dense(parse_libsvm(path))
    scale = float(np.max(np.linalg.norm(X, axis=1)))
    if scale > 0:
        X = X / scale
    order = np.random.default_rng(seed).permutation(X.shape[0])
    X, y = X[order], y[order]
    m = X.shape[0]
    batches = []
    for t in range(rounds):
        idx = np.arange(t * batch, (t + 1) * batch) % m
        batches.append(X[idx] * y[idx][:, None])
    return batches


@pytest.mark.parametrize("examples, batch, dim", [(120, 40, 5), (130, 50, 7), (37, 50, 3)],
                         ids=["m-multiple-of-batch", "m-not-a-multiple", "m-below-batch"])
def test_classification_batches_match_per_round_copies(tmp_path, examples, batch, dim):
    path = tmp_path / "d.libsvm"
    gen_classification_file(path, examples=examples, dim=dim, seed=3)
    rounds = 11
    task = load_classification(path, rounds=rounds, batch=batch, seed=4)
    copies = [LogisticBatchLoss(Z, batch)
              for Z in _batches_copied_per_round(path, rounds, batch, seed=4)]
    assert len(task.losses) == len(copies) == rounds
    x = np.random.default_rng(5).uniform(-0.3, 0.3, size=(3, dim))
    shared = task.losses[0].Z.base
    for f, ref in zip(task.losses, copies):
        assert f.Z.shape == ref.Z.shape and f.Z.tobytes() == ref.Z.tobytes()
        assert f.Z.base is shared and not f.Z.flags.writeable
        assert f.grad_bound == ref.grad_bound
        for row in x:
            assert f.value(row) == ref.value(row)
            assert f.gradient(row).tobytes() == ref.gradient(row).tobytes()
    assert task.params.grad_bound == max(ref.grad_bound for ref in copies)
    # The summed loss weights the file's distinct rows; the reference stacks every copy.
    assert task.total.counts.sum() == rounds * batch
    stacked = LogisticBatchLoss(np.concatenate([ref.Z for ref in copies]), batch)
    assert task.total.smoothness == pytest.approx(stacked.smoothness, rel=1e-12)
    for row in x:
        assert task.total.value(row) == pytest.approx(stacked.value(row), rel=1e-12)
        np.testing.assert_allclose(task.total.gradient(row), stacked.gradient(row),
                                   rtol=1e-12, atol=0)
    u, _ = offline_comparator(task.total, task.dset)
    _, best = offline_comparator(stacked, task.dset)
    assert abs(stacked.value(u) - best.value) <= best.gap + 1e-12 * abs(best.value)


def test_classification_gradient_bound_takes_each_row_norm_once(tmp_path, monkeypatch):
    # 130 examples in batches of 50 wrap around the file. The row norms are taken
    # once, for the file's rows and then for the m + batch - 1 signed base rows, and
    # each batch's cap from them equals its LogisticBatchLoss.grad_bound bit for bit.
    path = tmp_path / "d.libsvm"
    gen_classification_file(path, examples=130, dim=7, seed=3)
    calls, row_norms = [], harness._row_norms
    monkeypatch.setattr(harness, "_row_norms", lambda X: calls.append(len(X)) or row_norms(X))
    task = load_classification(path, rounds=11, batch=50, seed=4)
    assert calls == [130, 130 + 49]
    norms = row_norms(task.losses[0].Z.base)
    caps = [float(np.sum(norms[t * 50 % 130:][:50])) / 50 for t in range(11)]
    assert [cap.hex() for cap in caps] == [f.grad_bound.hex() for f in task.losses]
    assert task.params.grad_bound.hex() == max(caps).hex()


def test_classification_stream_memory_does_not_grow_with_rounds(tmp_path):
    path = tmp_path / "d.libsvm"
    gen_classification_file(path, examples=300, dim=10, seed=0)
    tracemalloc.start()
    try:
        task = load_classification(path, rounds=1000, batch=200)
        offline_comparator(task.total, task.dset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(task.losses) == 1000
    # A copy per round, or a stacked summed loss, would be 1000 * 200 * 10 floats, over 15 MiB.
    assert peak < 0.75 * 2**20


def test_run_experiment_writes_everything(tmp_path):
    out = tmp_path / "exp"
    cfg = ExperimentConfig(
        task="regression", algos=("maler", "metagrad", "ogd-convex"),
        rounds=12, dim=3, batch=8, seed=5, out=str(out), svg=True,
    )
    result = run_experiment(cfg)
    assert (out / "results.csv").exists()
    assert (out / "trace_maler.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "regret.svg").exists()
    lines = (out / "results.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 12
    # Non-ensemble learners leave the potential column empty.
    ogd_lines = [l for l in lines[1:] if l.split(",")[1] == "ogd-convex"]
    assert all(l.split(",")[5] == "" for l in ogd_lines)
    svg = (out / "regret.svg").read_text()
    assert svg.startswith("<svg") and "maler" in svg
    report = (out / "report.txt").read_text()
    assert "final regret" in report and "comparator" in report


def test_csv_reproducible_from_saved_traces(tmp_path):
    out = tmp_path / "exp"
    cfg = ExperimentConfig(
        task="regression", algos=("maler", "ogd-convex"),
        rounds=10, dim=3, batch=6, seed=6, out=str(out),
    )
    result = run_experiment(cfg)
    lines = (out / "results.csv").read_text().strip().split("\n")[1:]
    by_algo = {}
    for line in lines:
        parts = line.split(",")
        by_algo.setdefault(parts[1], []).append(parts)
    for algo in ("maler", "ogd-convex"):
        trace = load_trace(out / f"trace_{algo}.json")
        diag = regret_diagnostics(trace)
        for t, parts in enumerate(by_algo[algo]):
            assert int(parts[0]) == t + 1
            assert float(parts[2]) == pytest.approx(diag.cum_regret[t], abs=1e-9)
            assert float(parts[3]) == pytest.approx(diag.cum_v_s[t], abs=1e-9)
            assert float(parts[4]) == pytest.approx(diag.cum_v_ell[t], abs=1e-9)
            if algo == "maler":
                assert float(parts[5]) == pytest.approx(trace.log_phi[t], abs=1e-12)


def test_run_experiment_refuses_ogd_sc_on_classification_before_the_comparator(tmp_path,
                                                                               monkeypatch):
    def no_comparator(*args):
        raise AssertionError("the comparator ran before the learners were refused")

    monkeypatch.setattr(harness, "offline_comparator", no_comparator)
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=20, dim=3, seed=1)
    cfg = ExperimentConfig(task="classification", algos=("maler", "ogd-sc"), data=str(data),
                           rounds=3, batch=4)
    with pytest.raises(ValueError,
                       match="^ogd-sc baseline needs the strong-convexity modulus sc_modulus$"):
        run_experiment(cfg)


@pytest.mark.parametrize("algos, reason", [
    (("maler", "nope"), "unknown algo 'nope'; known: maler, metagrad, ogd-convex, ogd-sc, ons"),
    (("maler", "ons", "maler"), "--algos names 'maler' more than once"),
], ids=["unknown", "repeated"])
def test_run_experiment_refuses_an_algo_before_drawing_the_stream(monkeypatch, algos, reason):
    # Traces are kept by algo name, so a repeated algo would run twice and keep one trace.
    def no_stream(*args, **kwargs):
        raise AssertionError("the stream was drawn before the algos were refused")

    monkeypatch.setattr(harness, "gen_regression", no_stream)
    with pytest.raises(ValueError) as exc:
        run_experiment(ExperimentConfig(algos=algos, rounds=3, dim=2))
    assert str(exc.value) == reason


def test_run_experiment_frees_each_learner_before_the_next_runs(monkeypatch):
    built, ran = [], []

    def recording_make_learner(*args):
        learner = make_learner(*args)
        built.append(weakref.ref(learner))
        return learner

    def checking_run_stream(learner, losses):
        # Every learner is built before the first runs; all that ran before are freed.
        assert len(built) == 4
        assert all(ref() is None for ref in ran)
        ran.append(weakref.ref(learner))
        return run_stream(learner, losses)

    monkeypatch.setattr(harness, "make_learner", recording_make_learner)
    monkeypatch.setattr(harness, "run_stream", checking_run_stream)
    result = run_experiment(ExperimentConfig(algos=("maler", "metagrad", "ogd-convex", "ons"),
                                             rounds=6, dim=2, batch=5, seed=3))
    assert list(result.traces) == ["maler", "metagrad", "ogd-convex", "ons"]
    assert len(ran) == 4 and all(ref() is None for ref in ran)


def _full_trace(rounds, horizon=2):
    """A maler trace with every array set; rounds=0 gives zero-row arrays.

    The task has max(rounds, horizon) rounds; the default horizon 2 is the
    shortest of an expert grid."""
    task = gen_regression(rounds=max(rounds, horizon), dim=2, batch=5, seed=7)
    trace = run_stream(MalerLearner(task.params, task.dset), task.losses[:rounds])
    x, _ = offline_comparator(task.total, task.dset)
    trace.comparator = x
    trace.loss_at_comparator = np.array([f.value(x) for f in task.losses[:rounds]])
    return trace


def test_trace_round_trip(tmp_path):
    trace = _full_trace(6)
    path = tmp_path / "t.json"
    save_trace(trace, path)
    again = load_trace(path)
    assert again.algo == trace.algo
    assert again.grid.style == "maler"
    np.testing.assert_allclose(again.plays, trace.plays, atol=0)
    np.testing.assert_allclose(again.expert_points, trace.expert_points, atol=0)
    np.testing.assert_allclose(again.log_phi, trace.log_phi, atol=0)
    np.testing.assert_allclose(again.comparator, trace.comparator, atol=0)
    reports, ok = certify_trace(again)
    assert ok


def test_certify_trace_flags_gradient_violation(tmp_path):
    task = gen_regression(rounds=5, dim=2, batch=5, seed=8)
    learner = MalerLearner(task.params, task.dset)
    trace = run_stream(learner, task.losses)
    trace.grads = trace.grads.copy()
    trace.grads[2] *= 50.0
    reports, ok = certify_trace(trace)
    assert not ok


def test_experiment_rejects_bad_config(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(task="classification", algos=("maler",)))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(task="nope"))
    path = tmp_path / "d.libsvm"
    gen_classification_file(path, examples=40, dim=3, seed=1)
    with pytest.raises(ValueError):
        run_experiment(
            ExperimentConfig(task="classification", data=str(path), algos=("ogd-sc",),
                             rounds=2, batch=10)
        )


def test_default_configs_run_their_tasks_default_algorithms(tmp_path):
    assert ExperimentConfig().algos == ("maler", "metagrad", "ogd-convex", "ogd-sc", "ons")
    path = tmp_path / "d.libsvm"
    gen_classification_file(path, examples=60, dim=3, seed=1)
    result = run_experiment(ExperimentConfig(task="classification", data=str(path), rounds=4,
                                             batch=10))
    assert result.config.algos == ("maler", "metagrad", "ogd-convex", "ons")
    assert list(result.traces) == list(result.config.algos)
    assert all(trace.rounds == 4 for trace in result.traces.values())


def test_sample_ball_inside_and_deterministic():
    rng = np.random.default_rng(9)
    pts = sample_ball(rng, 500, 6, 0.8)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.8 + 1e-12)
    again = sample_ball(np.random.default_rng(9), 500, 6, 0.8)
    np.testing.assert_array_equal(pts, again)


def test_cli_run_and_certify(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = cli.main([
        "run", "--task", "regression", "--rounds", "8", "--dim", "2", "--batch", "5",
        "--seed", "3", "--algos", "maler,metagrad", "--out", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "final regret" in captured
    assert (out / "results.csv").exists()

    rc = cli.main(["certify", "--trace", str(out / "trace_maler.json")])
    assert rc == 0
    assert "certificates PASS" in capsys.readouterr().out


def test_report_holds_what_certify_prints_for_every_trace(tmp_path, capsys):
    # `maler run` certifies each algo's run through certify_trace and prints
    # it with certify_lines, so report.txt holds `maler certify`'s stdout.
    data = tmp_path / "train.libsvm"
    gen_classification_file(data, examples=60, dim=3, seed=2)
    runs = {"reg": SMALL_RUN, "cls": ["run", "--task", "classification", "--data", str(data),
                                      "--rounds", "6", "--batch", "10"]}
    for name, argv in runs.items():
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    algos = {}
    for name in runs:
        report = (tmp_path / name / "report.txt").read_text()
        for tpath in sorted((tmp_path / name).glob("trace_*.json")):
            assert cli.main(["certify", "--trace", str(tpath)]) == 0
            printed = capsys.readouterr().out
            assert printed.startswith("[PASS] assumptions: 4 checks, ") and printed in report
            algos.setdefault(name, []).append(load_trace(tpath).algo)
    assert algos == {"reg": ["maler"], "cls": ["maler", "metagrad", "ogd-convex", "ons"]}
    # The run's curvature moduli add their caps to regret-bounds.
    reports, _ = certify_trace(load_trace(tmp_path / "reg" / "trace_maler.json"))
    [bounds] = [rep for rep in reports if rep.name == "regret-bounds"]
    assert [row.label for row in bounds.rows[3:]] == ["regret <= (10GD + 9G^2/(2 lam)) A",
                                                     "regret <= (10GD + 9/(2 beta)) B"]
    assert len(bounds.rows) == 5 and all(row.ok for row in bounds.rows)


# The run every tamper test edits; tests/data/trace_v1_maler.json is its
# trace in the legacy nested-list layout.
SMALL_RUN = ["run", "--task", "regression", "--rounds", "6", "--dim", "2", "--batch", "5",
             "--seed", "4", "--algos", "maler"]
LEGACY_TRACE = os.path.join(os.path.dirname(__file__), "data", "trace_v1_maler.json")


def _encode(values) -> dict:
    a = np.asarray(values, dtype=float)
    return {"shape": list(a.shape), "f8": base64.b64encode(a.astype("<f8").tobytes()).decode()}


def _decode(obj) -> np.ndarray:
    return np.frombuffer(base64.b64decode(obj["f8"]), dtype="<f8").reshape(obj["shape"])


def _small_run_trace(tmp_path):
    out = tmp_path / "exp"
    assert cli.main([*SMALL_RUN, "--out", str(out)]) == 0
    return out / "trace_maler.json"


def _rewritten(tpath, edit):
    obj = json.loads(tpath.read_text())
    replaced = edit(obj)
    tpath.write_text(json.dumps(obj if replaced is None else replaced))
    return tpath


def _tampered_trace(tmp_path, edit):
    """The small run's trace with edit applied to its arrays as nested lists, saved as format 2."""
    def on_lists(obj):
        assert obj["format"] == 2
        for name in TRACE_ARRAYS:
            if obj[name] is not None:
                obj[name] = _decode(obj[name]).tolist()
        replaced = edit(obj)
        for name in TRACE_ARRAYS:
            if isinstance(obj.get(name), list):
                obj[name] = _encode(obj[name])
        return replaced

    return _rewritten(_small_run_trace(tmp_path), on_lists)


def test_cli_certify_detects_tampering(tmp_path, capsys):
    def raise_phi(obj):
        obj["log_phi"][3] = obj["log_phi"][2] + 0.5

    tpath = _tampered_trace(tmp_path, raise_phi)
    rc = cli.main(["certify", "--trace", str(tpath)])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_certify_flags_play_outside_ball(tmp_path, capsys):
    def move_play(obj):
        obj["plays"][2] = [0.5 + 1e-6, 0.0]

    tpath = _tampered_trace(tmp_path, move_play)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(tpath)]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] assumptions" in out
    assert "violated: max play distance past the radius" in out
    assert "certificates FAIL" in out


def test_cli_certify_flags_nan_gradient(tmp_path, capsys):
    def poison(obj):
        obj["grads"][3][0] = float("nan")

    tpath = _tampered_trace(tmp_path, poison)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(tpath)]) == 2
    out = capsys.readouterr().out
    assert "violated: gradients finite measured=1 bound=0" in out
    assert "certificates FAIL" in out


def test_load_trace_rejects_non_ball_sets(tmp_path):
    def boxed(obj):
        obj["dset"] = {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}

    tpath = _tampered_trace(tmp_path, boxed)
    with pytest.raises(ValueError):
        load_trace(tpath)
    assert cli.main(["certify", "--trace", str(tpath)]) == 1


def _drop_column(key):
    def edit(obj):
        obj[key] = [row[:-1] for row in obj[key]]
    return edit


def _set(key, value):
    def edit(obj):
        obj[key] = value(obj)
    return edit


def _null(*keys):
    def edit(obj):
        for key in keys:
            obj[key] = None
    return edit


def _one_round(obj):
    obj["params"]["horizon"] = 1
    for name in ("plays", "grads", *GRID_ARRAYS, "loss_at_play", "loss_at_comparator"):
        obj[name] = obj[name][:1]


def _ungridded(obj):
    obj["grid_style"] = None
    for key in GRID_ARRAYS:
        del obj[key]


def _as(algo, **fields):
    """The trace relabelled as one of an ungridded algo, with fields set."""
    def edit(obj):
        _ungridded(obj)
        obj.update(algo=algo, **fields)
    return edit


@pytest.mark.parametrize("edit, reason", [
    (_set("log_phi", lambda obj: obj["log_phi"][:-3]), "log_phi has shape (3,)"),
    (_drop_column("expert_points"), "expert_points has shape (6, 6, 2)"),
    (_drop_column("surrogate_losses"), "surrogate_losses has shape (6, 6)"),
    (_drop_column("log_weights"), "log_weights has shape (6, 6)"),
    (_set("params", lambda obj: {**obj["params"], "horizon": 200}),
     "expert_points has shape (6, 7, 2), expected (6, 11, 2)"),
    (_set("params", lambda obj: {**obj["params"], "horizon": 4}), "does not fit horizon 4"),
    (_set("plays", lambda obj: obj["plays"][:-1]), "grads has shape (6, 2), expected (5, 2)"),
    (_drop_column("grads"), "grads has shape (6, 1)"),
    (_set("loss_at_play", lambda obj: obj["loss_at_play"][1:]), "loss_at_play has shape (5,)"),
    (_set("comparator", lambda obj: obj["comparator"] + [0.0]), "comparator has shape (3,)"),
    (lambda obj: [obj], "must be a JSON object"),
    (_set("params", lambda obj: {**obj["params"], "extra": 1}),
     "unexpected keyword argument 'extra'"),
    (_set("params", lambda obj: {**obj["params"], "horizon": "6"}), "horizon must be an integer"),
    (_set("dset", lambda obj: {**obj["dset"], "center": 0.0}), "center must be a vector"),
    (_set("dset", lambda obj: {**obj["dset"], "center": [math.nan, 0.0]}), "center must be finite"),
    (_set("dset", lambda obj: {**obj["dset"], "center": [0.0, math.inf]}), "center must be finite"),
    (_set("params", lambda obj: {**obj["params"], "horizon": 6.5}), "horizon must be an integer"),
    (_set("params", lambda obj: {**obj["params"], "dim": 2.0}), "dim must be an integer"),
    (_set("params", lambda obj: {**obj["params"], "horizon": True}), "horizon must be an integer"),
    (_null("expert_points"), "must carry expert_points"),
    (_null("log_phi"), "must carry log_phi"),
    (_null("comparator", "loss_at_comparator"), "must carry loss_at_comparator"),
    (_ungridded, "algo 'maler' runs on grid_style 'maler', not None"),
    (_set("algo", lambda obj: "metagrad"),
     "algo 'metagrad' runs on grid_style 'metagrad', not 'maler'"),
    (lambda obj: obj.update(algo="ogd-convex", grid_style=None),
     "a trace of algo 'ogd-convex' carries no expert_points"),
    (_set("sc_modulus", lambda obj: 0.0), "sc_modulus must be finite and > 0"),
    (_set("exp_concavity", lambda obj: -1.0), "exp_concavity must be finite and > 0"),
    (_set("sc_modulus", lambda obj: True), "sc_modulus must be finite and > 0, got True"),
    (_set("exp_concavity", lambda obj: "0.5"), "exp_concavity must be finite and > 0, got '0.5'"),
    (_set("sc_modulus", lambda obj: float("nan")), "sc_modulus must be finite and > 0"),
    (_set("exp_concavity", lambda obj: float("inf")), "exp_concavity must be finite and > 0"),
    (_set("sc_modulus", lambda obj: 10**400), "sc_modulus must be finite and > 0"),
    (_set("exp_concavity", lambda obj: [0.5]), "exp_concavity must be finite and > 0, got [0.5]"),
    (_one_round, "horizon T=1 is too short"),
    (_set("params", lambda obj: {**obj["params"], "dim": 10**400}),
     "dim must fit in a float, got an integer too large for a float"),
    (_set("params", lambda obj: {**obj["params"], "horizon": 10**400}),
     "horizon must fit in a float, got an integer too large for a float"),
    (_set("params", lambda obj: {**obj["params"], "grad_bound": 10**400}),
     "grad_bound must be finite and > 0, got an integer too large for a float"),
    (_set("params", lambda obj: {**obj["params"], "diameter": 10**400}),
     "diameter must be finite and > 0, got an integer too large for a float"),
    (_set("dset", lambda obj: {**obj["dset"], "radius": 10**400}),
     "radius must be finite and > 0, got an integer too large for a float"),
    (_set("dset", lambda obj: {**obj["dset"], "center": [10**400, 0.0]}),
     "dset.center holds an integer too large for a float"),
    (_set("params", lambda obj: {**obj["params"], "grad_bound": True}),
     "grad_bound must be finite and > 0, got True"),
    (_set("params", lambda obj: {**obj["params"], "diameter": True}),
     "diameter must be finite and > 0, got True"),
    (_set("dset", lambda obj: {**obj["dset"], "radius": True}),
     "radius must be finite and > 0, got True"),
    (_as("nope"), "unknown algo 'nope'; known: maler, metagrad, ogd-convex, ogd-sc, ons"),
    (_as(42), "algo must be a string, got 42"),
    (_as(None), "algo must be a string, got None"),
    (_as(["ons"]), "algo must be a string, got ['ons']"),
    (_as("ons", exp_concavity=None), "ons baseline needs the exp-concavity modulus exp_concavity"),
    (_as("ogd-sc", sc_modulus=None),
     "ogd-sc baseline needs the strong-convexity modulus sc_modulus"),
], ids=["log_phi-rows", "expert_points-experts", "surrogate_losses-experts",
        "log_weights-experts", "horizon-grid", "horizon-below-T", "plays-rows",
        "grads-dim", "loss_at_play-rows", "comparator-dim", "top-level-list",
        "params-extra-key", "horizon-string", "center-scalar", "center-nan", "center-inf",
        "horizon-fraction",
        "dim-float", "horizon-bool", "expert_points-null", "log_phi-null",
        "comparator-null", "grid_style-null", "algo-other-grid", "algo-without-grid",
        "sc_modulus-zero", "exp_concavity-negative", "sc_modulus-bool", "exp_concavity-string",
        "sc_modulus-nan", "exp_concavity-inf", "sc_modulus-huge-int", "exp_concavity-list",
        "horizon-one", "dim-huge-int", "horizon-huge-int", "grad_bound-huge-int",
        "diameter-huge-int", "radius-huge-int", "center-huge-int", "grad_bound-bool",
        "diameter-bool", "radius-bool", "algo-unknown", "algo-int", "algo-null",
        "algo-list", "ons-exp_concavity-null", "ogd-sc-sc_modulus-null"])
def test_cli_certify_rejects_misshapen_traces(tmp_path, capsys, edit, reason):
    tpath = _tampered_trace(tmp_path, edit)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(tpath)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load trace")
    assert reason in err


def test_load_trace_refuses_misshapen_arrays_before_building_the_learner(tmp_path, monkeypatch):
    # A 6-round trace that declares d = 300 (and a ball of that size) with its arrays at
    # d = 2 is refused on the arrays' shapes; building its learner would allocate the
    # bank's L x 300 x 300 metrics first.
    def wide(obj):
        obj["params"]["dim"] = 300
        obj["dset"]["center"] = [0.0] * 300

    tpath = _tampered_trace(tmp_path, wide)
    built = []
    monkeypatch.setattr(harness, "make_learner", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"^plays has shape \(6, 2\), expected \(6, 300\)$"):
        load_trace(tpath)
    assert built == []


def test_certify_names_a_legacy_array_entry_too_large_for_a_float(tmp_path, capsys):
    def huge_play(obj):
        obj["plays"][0][0] = 10**400

    tpath = tmp_path / "legacy.json"
    with open(LEGACY_TRACE, encoding="utf-8") as fh:
        tpath.write_text(fh.read())
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(_rewritten(tpath, huge_play))]) == 1
    err = capsys.readouterr().err
    assert err == "error: cannot load trace: plays holds an integer too large for a float\n"


# Each JSON entry that is not a number, made from the trace value v it replaces.
NOT_NUMBERS = {"bool": lambda v: True, "string": str, "null": lambda v: None,
               "object": lambda v: {"value": v}}


@pytest.mark.parametrize("kind", sorted(NOT_NUMBERS))
@pytest.mark.parametrize("layout, name", [("legacy", "loss_at_play"), ("legacy", "plays"),
                                          ("legacy", "dset.center"), ("format-2", "dset.center")])
def test_certify_refuses_a_trace_array_entry_that_is_not_a_number(tmp_path, capsys, layout,
                                                                  name, kind):
    # Such an entry used to load as a float: true as 1.0, "2.14" as 2.14 and null as NaN.
    shown = []

    def edit(obj):
        row = {"loss_at_play": lambda: obj["loss_at_play"], "plays": lambda: obj["plays"][0],
               "dset.center": lambda: obj["dset"]["center"]}[name]()
        row[0] = NOT_NUMBERS[kind](row[0])
        shown.append(json.dumps(row[0]))  # as the file holds it: true, "0.5", null, {...}

    if layout == "legacy":
        tpath = tmp_path / "legacy.json"
        with open(LEGACY_TRACE, encoding="utf-8") as fh:
            tpath.write_text(fh.read())
    else:
        tpath = _small_run_trace(tmp_path)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(_rewritten(tpath, edit))]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot load trace: {name} holds {shown[0]}, not a number\n"


def _set_array(key, **fields):
    def edit(obj):
        obj[key] = {**obj[key], **fields}
    return edit


@pytest.mark.parametrize("edit, reason", [
    (_set_array("plays", f8="!!!!"), "not valid base64"),
    (_set_array("plays", f8="AAAAA"), "not valid base64"),
    (_set_array("log_phi", f8=""), "needs 48 bytes, got 0"),
    (_set_array("grads", shape=[6, 3]), "needs 144 bytes, got 96"),
    (_set_array("plays", shape=[-6, -2]), "non-negative integers"),
    (_set_array("plays", shape=[6.0, 2]), "non-negative integers"),
    (_set_array("comparator", shape=[True, True]), "non-negative integers"),
    (_set_array("comparator", shape=2), "non-negative integers"),
    (_set_array("comparator", f8=None), "base64 string"),
    (_set_array("plays", dtype="f8"), "exactly the keys"),
    (_set("log_weights", lambda obj: _decode(obj["log_weights"]).tolist()), "exactly the keys"),
    (_set("format", lambda obj: 3), "unknown trace format"),
    (_set("format", lambda obj: "2"), "unknown trace format"),
    (_set("format", lambda obj: None), "unknown trace format"),
], ids=["base64-alphabet", "base64-padding", "bytes-short", "bytes-vs-shape",
        "shape-negative", "shape-float", "shape-bool", "shape-scalar", "data-null",
        "extra-key", "list-in-format-2", "format-3", "format-string", "format-null"])
def test_load_trace_rejects_malformed_arrays(tmp_path, capsys, edit, reason):
    tpath = _rewritten(_small_run_trace(tmp_path), edit)
    with pytest.raises(ValueError, match=reason):
        load_trace(tpath)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(tpath)]) == 1
    assert "error: cannot load trace" in capsys.readouterr().err


@pytest.mark.parametrize("rounds", [6, 0])
def test_trace_arrays_round_trip_bit_exact(tmp_path, rounds):
    trace = _full_trace(rounds)
    if rounds:
        # Non-finite entries, one a NaN with a payload, survive bit for bit.
        payload_nan = np.frombuffer(np.uint64(0x7FF8_0000_0000_0123).tobytes(), dtype=float)[0]
        trace.log_phi = trace.log_phi.copy()
        trace.log_phi[1:4] = [payload_nan, np.inf, -np.inf]
        trace.expert_points = trace.expert_points.copy()
        trace.expert_points[2, 0, 1] = -0.0
    path = tmp_path / "t.json"
    save_trace(trace, path)
    obj = json.loads(path.read_text())
    assert obj["format"] == 2
    if rounds:
        again = load_trace(path)
        arrays = {name: getattr(again, name) for name in TRACE_ARRAYS}
    else:
        # load_trace refuses a trace of fewer than 2 rounds; its zero-row arrays still decode.
        arrays = {name: harness._decode_array(obj[name]) for name in TRACE_ARRAYS}
    for name in TRACE_ARRAYS:
        want, got = getattr(trace, name), arrays[name]
        assert got is not None, name
        assert got.dtype == np.float64 and got.flags.writeable and got.shape == want.shape, name
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes(), name


@pytest.mark.parametrize("rounds", [0, 1])
def test_load_trace_refuses_a_trace_of_fewer_than_two_rounds(tmp_path, capsys, rounds):
    # Every bound takes ln T of the played rounds: at 0 rounds that was a math
    # domain error, and at 1 round the expert cap 10 d ln 1 = 0 failed an honest run.
    path = tmp_path / "t.json"
    save_trace(_full_trace(rounds, horizon=10), path)
    with pytest.raises(ValueError, match="too short"):
        load_trace(path)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(path)]) == 1
    assert "error: cannot load trace" in capsys.readouterr().err


def _one_shot_trace_bytes(trace) -> bytes:
    """The file as save_trace wrote it from one json.dumps of the whole document,
    each array one base64 string: the reference for the streamed writer."""
    p = trace.params
    obj = {
        "format": 2,
        "algo": trace.algo,
        "params": {"horizon": p.horizon, "dim": p.dim, "grad_bound": p.grad_bound,
                   "diameter": p.diameter},
        "dset": {"kind": "ball", "center": trace.dset.center.tolist(),
                 "radius": trace.dset.radius},
        "grid_style": None if trace.grid is None else trace.grid.style,
        "sc_modulus": p.sc_modulus,
        "exp_concavity": p.exp_concavity,
    }
    for name in TRACE_ARRAYS:
        arr = getattr(trace, name)
        obj[name] = None if arr is None else _encode(arr)
    return (json.dumps(obj) + "\n").encode("utf-8")


@pytest.mark.parametrize("chunk", [3, 24, harness.TRACE_CHUNK])
def test_saved_trace_bytes_match_the_one_shot_encoder(tmp_path, monkeypatch, chunk):
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=50, dim=3, seed=1)
    traces = [*run_experiment(ExperimentConfig(rounds=7, dim=3, batch=5, seed=2)).traces.values(),
              *run_experiment(ExperimentConfig(task="classification", data=str(data), rounds=5,
                                               batch=20, algos=("maler", "ons"))).traces.values()]
    assert {t.algo for t in traces} == {"maler", "metagrad", "ogd-convex", "ogd-sc", "ons"}
    traces.append(_full_trace(0))
    odd = _full_trace(6)
    payload_nan = np.frombuffer(np.uint64(0x7FF8_0000_0000_0123).tobytes(), dtype=float)[0]
    odd.log_phi = odd.log_phi.copy()
    odd.log_phi[1:5] = [payload_nan, np.inf, -np.inf, -0.0]
    # Longer than a default chunk, with byte lengths that are not multiples of 3.
    rng = np.random.default_rng(3)
    for name, n in (("loss_at_play", harness.TRACE_CHUNK // 8 + 1),
                    ("loss_at_comparator", 2 * (harness.TRACE_CHUNK // 8) + 2)):
        assert 8 * n > harness.TRACE_CHUNK and 8 * n % 3 != 0
        setattr(odd, name, rng.standard_normal(n))
    traces.append(odd)
    monkeypatch.setattr(harness, "TRACE_CHUNK", chunk)
    for i, trace in enumerate(traces):
        path = tmp_path / f"t{i}.json"
        save_trace(trace, path)
        assert path.read_bytes() == _one_shot_trace_bytes(trace), trace.algo


def test_save_trace_holds_a_chunk_not_the_document(tmp_path):
    trace = _full_trace(6)
    trace.expert_points = np.random.default_rng(0).standard_normal((5000, 17, 8))
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        save_trace(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= 5 * 10**6
    # Encoding the whole document at once held several copies of it, over 30 MB.
    # binascii allocates 2 output bytes per input byte before it trims.
    assert peak < 3 * harness.TRACE_CHUNK
    assert path.read_bytes() == _one_shot_trace_bytes(trace)


def test_legacy_trace_loads_like_its_format_2_run(tmp_path):
    with open(LEGACY_TRACE, encoding="utf-8") as fh:
        assert "format" not in json.load(fh)
    legacy = load_trace(LEGACY_TRACE)
    current = load_trace(_small_run_trace(tmp_path))
    # The legacy layout predates the recorded moduli, so it certifies like
    # its run without them (no curvature caps in regret-bounds).
    assert legacy.params.sc_modulus is None and legacy.params.exp_concavity is None
    assert current.params.sc_modulus == 2e-3 and current.params.exp_concavity > 0.0
    current.params = replace(current.params, sc_modulus=None, exp_concavity=None)
    for name in TRACE_ARRAYS:
        assert getattr(legacy, name).tobytes() == getattr(current, name).tobytes(), name
    (legacy_reports, legacy_ok), (reports, ok) = certify_trace(legacy), certify_trace(current)
    assert legacy_ok and ok

    def rows(reps):
        return [(rep.name, row.label, row.measured, row.bound) for rep in reps for row in rep.rows]

    assert rows(legacy_reports) == rows(reports)


def test_cli_run_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    assert cli.run_config(parser.parse_args(["run"])) == ExperimentConfig()
    args = parser.parse_args(["run", "--task", "classification", "--algos", "maler,,ons",
                              "--lambda", "0.5", "--noise-std", "0.2", "--svg"])
    assert cli.run_config(args) == ExperimentConfig(
        task="classification", algos=("maler", "ons"), ridge_lambda=0.5, noise_std=0.2, svg=True)


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["run", "--task", "classification"]) == 1
    assert cli.main(["run", "--algos", "bogus"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: unknown algo 'bogus'")
    assert cli.main(["run", "--rounds", "nan"]) == 1
    # A usage error is one `error:` line, as every other refusal is.
    assert capsys.readouterr().err == "error: argument --rounds: invalid int value: 'nan'\n"
    assert cli.main(["certify", "--trace", str(tmp_path / "missing.json")]) == 1
    assert cli.main(["run", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: maler run")


def test_cli_refuses_an_algo_named_twice(capsys):
    # Each algo's trace goes to trace_<algo>.json, so a repeat would run twice and keep one.
    assert cli.main(["run", "--rounds", "3", "--dim", "2", "--algos", "maler,ons,maler"]) == 1
    assert capsys.readouterr().err == "error: --algos names 'maler' more than once\n"


@pytest.mark.parametrize("value", ["", ",", ",,"])
def test_cli_refuses_an_algos_value_naming_no_algo(capsys, value):
    assert cli.main(["run", "--rounds", "3", "--dim", "2", "--algos", value]) == 1
    assert capsys.readouterr().err == (f"error: --algos {value!r} names no algo; known: "
                                       "maler, metagrad, ogd-convex, ogd-sc, ons\n")


def test_run_and_certify_refuse_an_unknown_algo_with_one_text(tmp_path, capsys):
    assert cli.main(["run", "--rounds", "3", "--dim", "2", "--algos", "nope"]) == 1
    run_err = capsys.readouterr().err
    tpath = _tampered_trace(tmp_path, _as("nope"))
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(tpath)]) == 1
    text = "unknown algo 'nope'; known: maler, metagrad, ogd-convex, ogd-sc, ons\n"
    assert run_err == f"error: {text}"
    assert capsys.readouterr().err == f"error: cannot load trace: {text}"


def test_each_learner_builds_its_grid_and_surrogate_constants_once(tmp_path, monkeypatch):
    out = tmp_path / "exp"
    assert cli.main([*SMALL_RUN[:-1], "maler,metagrad", "--out", str(out)]) == 0
    calls = {"build_grid": 0, "expert_constants": 0}
    for owner, name in ((meta, "build_grid"), (surrogates, "expert_constants")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    # load_trace takes the grid of the learner it builds; the bank reads its constants.
    for algo in ("maler", "metagrad"):
        trace = load_trace(out / f"trace_{algo}.json")
        assert trace.grid.style == algo
        assert calls == {"build_grid": 1, "expert_constants": 1}, algo
        calls.update(build_grid=0, expert_constants=0)
    MalerLearner(trace.params, trace.dset)
    assert calls == {"build_grid": 1, "expert_constants": 1}


def test_cli_classification_run(tmp_path):
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=200, dim=4, seed=2)
    out = tmp_path / "exp"
    rc = cli.main([
        "run", "--task", "classification", "--data", str(data), "--rounds", "6",
        "--batch", "20", "--seed", "1", "--algos", "maler,ons", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "trace_ons.json").exists()


# `maler certify`'s stdout for the small run's trace, pinned byte for byte so
# that a faster certificate path must print exactly what the per-expert sums
# printed; the legacy fixture predates the curvature moduli, so its
# regret-bounds has 3 rows.
SMALL_RUN_CERTIFIED = """\
[PASS] assumptions: 4 checks, min slack 0 at 'gradients finite'
[PASS] potential: 7 checks, min slack 0.0121912 at 'log-potential step t=6'
[PASS] meta-regret: 7 checks, min slack 1.09356 at 'meta-regret c'
[PASS] expert-regret: 7 checks, min slack 0.709792 at 'expert-regret c'
[PASS] regret-bounds: 5 checks, min slack 314.256 at 'regret <= 2(1+ln3) G D sqrt(T)'
certificates PASS for algo='maler'
"""


def _phi_raised(obj):
    obj["log_phi"][3] = obj["log_phi"][2] + 0.5


def _grad_poisoned(obj):
    obj["grads"][3][0] = float("nan")


@pytest.mark.parametrize("edit, rc, printed", [
    (None, 0, SMALL_RUN_CERTIFIED),
    ("legacy", 0, SMALL_RUN_CERTIFIED.replace("regret-bounds: 5 checks", "regret-bounds: 3 checks")),
    (_phi_raised, 2, SMALL_RUN_CERTIFIED.replace(
        "[PASS] potential: 7 checks, min slack 0.0121912 at 'log-potential step t=6'\n",
        "[FAIL] potential: 7 checks, min slack -0.5 at 'log-potential step t=4'\n"
        "    violated: log-potential step t=4 measured=0.5 bound=1e-09\n").replace(
        "certificates PASS", "certificates FAIL")),
    (_grad_poisoned, 2, """\
[FAIL] assumptions: 4 checks, min slack nan at 'max ||g_t|| <= G'
    violated: max ||g_t|| <= G measured=nan bound=30.8987314419
    violated: gradients finite measured=1 bound=0
certificates FAIL for algo='maler'
"""),
], ids=["small-run", "legacy", "phi-raised", "grad-nan"])
def test_cli_certify_prints_the_pinned_report(tmp_path, capsys, edit, rc, printed):
    if edit == "legacy":
        tpath = LEGACY_TRACE
    elif edit is None:
        tpath = _small_run_trace(tmp_path)
    else:
        tpath = _tampered_trace(tmp_path, edit)
    capsys.readouterr()
    assert cli.main(["certify", "--trace", str(tpath)]) == rc
    assert capsys.readouterr().out == printed


def _refused(capsys, argv, name):
    """cli.main(argv) exits 1 with one `error:` line naming name, no traceback and no
    RuntimeWarning (turned into an error here, as pyproject.toml does for the suite)."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert name in captured.err and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("flags, name", [
    (["--lambda", "1e300"], "--lambda"),
    (["--noise-std", "1e300"], "--noise-std"),
    (["--lambda", "nan"], "--lambda"),
    (["--lambda", "0"], "--lambda"),
    (["--lambda", "5e-324"], "--lambda"),
    (["--noise-std", "-1"], "--noise-std"),
    (["--noise-std", "nan"], "--noise-std"),
    # ONS's beta = min(alpha, 1/(4GD))/2 is ~1e-202 here, so (beta D)^2 underflows to 0.
    (["--lambda", "1e-200"], "the online Newton metric I/(beta D)^2 overflows"),
], ids=["lambda-huge", "noise-huge", "lambda-nan", "lambda-zero", "lambda-tiny", "noise-negative",
        "noise-nan", "lambda-ons-metric"])
def test_cli_run_refuses_regression_inputs_out_of_range(capsys, flags, name):
    _refused(capsys, ["run", "--rounds", "3", "--dim", "2", "--batch", "4", *flags], name)


def test_cli_run_refuses_a_negative_seed_by_name(tmp_path, capsys):
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=20, dim=3, seed=1)
    for task in (["--dim", "2"], ["--task", "classification", "--data", str(data)]):
        err = _refused(capsys, ["run", "--rounds", "3", "--batch", "4", *task, "--seed", "-1"],
                       "--seed")
        assert err == "error: seed (--seed) must be >= 0, got -1\n"


@pytest.mark.parametrize("radius, name", [
    ("1e-300", "diameter 2e-300 is out of range: D^2 = 0"),
    ("1e160", "diameter 2e+160 is out of range: D^2 = inf"),
    ("1e150", "radius (--radius) 1e+150 sets the curvature moduli out of range: exp_concavity "
              "must be finite and > 0, got 0.0"),  # exp(-radius) underflows
    ("400", "the online Newton metric I/(beta D)^2 overflows"),
    # D^2 is in range, but the Newton rows' I/(beta D)^2 at beta = 25/56 overflows.
    ("8e-155", "overflows at beta = 0.446429, D = 1.6e-154, from diameter 1.6e-154"),
])
def test_cli_run_refuses_a_radius_out_of_range(tmp_path, capsys, radius, name):
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=20, dim=3, seed=1)
    _refused(capsys, ["run", "--task", "classification", "--data", str(data), "--rounds", "3",
                      "--batch", "4", "--radius", radius], name)


def test_cli_certify_refuses_a_diameter_out_of_range(tmp_path, capsys):
    tpath = _rewritten(_small_run_trace(tmp_path),
                       _set("params", lambda obj: {**obj["params"], "diameter": 1e308}))
    err = _refused(capsys, ["certify", "--trace", str(tpath)], "diameter")
    assert err.startswith("error: cannot load trace: diameter 1e+308 is out of range")


def _twenty_round_trace(tmp_path):
    out = tmp_path / "t20"
    assert cli.main(["run", "--rounds", "20", "--dim", "5", "--algos", "maler",
                     "--out", str(out)]) == 0
    return out / "trace_maler.json"


def _edited(tpath, edit):
    """tpath rewritten through load_trace/save_trace after edit(trace)."""
    trace = load_trace(tpath)
    edit(trace)
    save_trace(trace, tpath)
    return tpath


def _certified(capsys, tpath):
    """(exit code, stdout, stderr) of `maler certify`, with RuntimeWarnings as errors."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["certify", "--trace", str(tpath)])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return rc, out, err


def _failed_once(rc, out):
    """A FAIL verdict: exit code 2 and one verdict line, the last."""
    assert rc == 2
    assert out.count("certificates ") == 1 and out.endswith("certificates FAIL for algo='maler'\n")


def _entry(name, index, value):
    def edit(trace):
        getattr(trace, name)[index] = value
    return edit


@pytest.mark.parametrize("edit, failed", [
    (_entry("grads", (3, 0), 1e200), "violated: max ||g_t|| <= G measured=inf"),
    (_entry("plays", (3, 0), 1e200), "violated: max play distance past the radius measured=inf"),
], ids=["grad-1e200", "play-1e200"])
def test_certify_runs_no_bound_certificate_on_a_failed_assumption(tmp_path, capsys, edit,
                                                                  failed):
    # Run on the entry, the expert-regret certificate would project a non-finite point.
    rc, out, _ = _certified(capsys, _edited(_twenty_round_trace(tmp_path), edit))
    _failed_once(rc, out)
    assert out.startswith("[FAIL] assumptions: 4 checks, min slack -inf") and failed in out
    assert out.count("\n") == 3


@pytest.mark.parametrize("value", [1e300, -1e300, math.inf], ids=["1e300", "-1e300", "inf"])
def test_certify_fails_an_expert_point_far_outside_the_ball(tmp_path, capsys, value):
    rc, out, _ = _certified(capsys, _edited(_twenty_round_trace(tmp_path),
                                            _entry("expert_points", (3, 2, 0), value)))
    _failed_once(rc, out)
    assert out.startswith("[PASS] assumptions: 4 checks")
    # The report's headline names its violated row.
    assert "[FAIL] meta-regret: 9 checks, min slack nan at 'meta-regret s[1]'" in out
    assert "[FAIL] expert-regret: 9 checks, min slack nan at 'expert-regret s[1]'" in out


def test_certify_refuses_a_set_whose_center_norm_overflows(tmp_path, capsys):
    # ||c|| = 1e200 <= 2e200, but ||c||^2 overflows; the set is refused, not warned about.
    def far_ball(obj):
        obj["dset"] = {"kind": "ball", "center": [1e200] + [0.0] * 4, "radius": 2e200}

    rc, out, err = _certified(capsys, _rewritten(_twenty_round_trace(tmp_path), far_ball))
    assert rc == 1 and out == ""
    assert err == "error: cannot load trace: decision set must contain the origin\n"


@pytest.mark.parametrize("name, value", [
    ("exp_concavity", 5e-324), ("exp_concavity", 1e-310), ("sc_modulus", 5e-324),
])
def test_certify_refuses_a_modulus_whose_cap_is_infinite(tmp_path, capsys, name, value):
    tpath = _rewritten(_twenty_round_trace(tmp_path), _set(name, lambda obj: value))
    rc, out, err = _certified(capsys, tpath)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: cannot load trace: {name} {value!r} is out of range: "
                          "the regret cap ") and err.endswith("it must be finite\n")


@pytest.mark.parametrize("algo", ["maler", "ons"])
def test_certify_refuses_an_exp_concavity_that_run_refuses(tmp_path, capsys, algo):
    # As at `maler run --lambda 1e-200`: the regret cap is finite, but ONS's beta is
    # ~5e-201, so its metric I/(beta D)^2 overflows.
    out = tmp_path / "run"
    assert cli.main(["run", "--rounds", "20", "--dim", "5", "--algos", algo,
                     "--out", str(out)]) == 0
    tpath = _rewritten(out / f"trace_{algo}.json", _set("exp_concavity", lambda obj: 1e-200))
    rc, out, err = _certified(capsys, tpath)
    assert rc == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: cannot load trace: the online Newton metric I/(beta D)^2 "
                          "overflows at beta = 5e-201, D = 1")
    assert err.endswith(", from exp_concavity 1e-200\n")


def test_certify_names_a_horizon_too_large_for_a_float_in_an_ons_trace(tmp_path, capsys):
    # An ons trace has no expert grid to rebuild, so only ProblemParams refuses this T.
    out = tmp_path / "run"
    assert cli.main(["run", "--rounds", "20", "--dim", "3", "--algos", "ons",
                     "--out", str(out)]) == 0
    tpath = _rewritten(out / "trace_ons.json",
                       _set("params", lambda obj: {**obj["params"], "horizon": 10**400}))
    rc, out, err = _certified(capsys, tpath)
    assert rc == 1 and out == ""
    assert err == ("error: cannot load trace: horizon must fit in a float, got an integer too "
                   "large for a float\n")


def test_certify_refuses_a_comparator_outside_the_ball(tmp_path, capsys):
    rc, out, err = _certified(capsys, _edited(_twenty_round_trace(tmp_path),
                                              _entry("comparator", 0, 1e200)))
    assert rc == 1 and out == ""
    assert err == "error: cannot load trace: comparator lies outside the decision set\n"


@pytest.mark.parametrize("flags, name", [
    (["--lambda", "1e-200"], "--lambda"),
    (["--noise-std", "1e100"], "--noise-std"),
    (["--task", "classification", "--radius", "400"], "--radius"),
], ids=["lambda", "noise-std", "radius"])
def test_cli_run_names_the_flag_behind_an_unusable_exp_concavity(tmp_path, capsys, flags, name):
    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=20, dim=3, seed=1)
    err = _refused(capsys, ["run", "--rounds", "3", "--dim", "2", "--batch", "4",
                            "--data", str(data), *flags], name)
    verb = "sets" if name == "--radius" else "set"  # one flag, or --lambda and --noise-std
    assert f"{verb} the curvature moduli out of range: the online Newton metric" in err
