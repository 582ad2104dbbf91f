"""tools/same_outputs.py: its comparison, its smoke plan's expectations, its benchmark configs."""

import base64
import json
import os
import re
import shutil
import sys

import numpy as np
import pytest

from maler import core, harness

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "tools"), os.path.join(REPO, "perfbench")]
import same_outputs  # noqa: E402
import workloads  # noqa: E402

TINY = [("maler", ["run", "--rounds", "6", "--dim", "2", "--batch", "5", "--seed", "4",
                   "--algos", "maler,ons", "--out", "tiny"])]


def test_two_runs_of_one_tree_match_and_a_one_ulp_edit_differs(tmp_path):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        same_outputs.produce(str(tmp_path / name), TINY)
        runs.append(same_outputs.digest(str(tmp_path / name)))
    assert os.getcwd() != str(tmp_path / "b")  # produce restores the working directory
    rows, ok = same_outputs.compare(*runs)
    assert ok and all(row.startswith("same ") for row in rows)
    names = {row.split(" ", 2)[2] for row in rows}
    assert {"tiny/results.csv", "tiny/report.txt", "tiny/trace_maler.json",
            "tiny/trace_ons.json", "legacy/trace_v1_maler.json"} <= names
    # The run's stdout and exit code, and certify's on each trace and the legacy fixture.
    assert sum(name.startswith("stdout/") for name in names) == 4

    # One play of the maler trace moved by one ulp is one differing row.
    path = tmp_path / "b" / "tiny" / "trace_maler.json"
    obj = json.loads(path.read_text())
    plays = np.frombuffer(base64.b64decode(obj["plays"]["f8"]), dtype="<f8").copy()
    plays[3] = np.nextafter(plays[3], np.inf)
    obj["plays"]["f8"] = base64.b64encode(plays.tobytes()).decode("ascii")
    path.write_text(json.dumps(obj))
    rows, ok = same_outputs.compare(runs[0], same_outputs.digest(str(tmp_path / "b")))
    assert not ok
    assert [row for row in rows if not row.startswith("same ")] == [
        f"DIFF {runs[0]['tiny/trace_maler.json']}/"
        f"{same_outputs.digest(str(tmp_path / 'b'))['tiny/trace_maler.json']} tiny/trace_maler.json"]

    # The array table: the differing trace, then each of its arrays; only plays moved, by one ulp.
    report = same_outputs.array_report(str(tmp_path / "a"), str(tmp_path / "b"), rows)
    assert report[0] == [row for row in rows if not row.startswith("same ")][0]
    table = dict(line.strip().split(": ", 1) for line in report[1:])
    assert set(table) == {"plays", "grads", "expert_points", "surrogate_losses", "log_weights",
                          "log_phi", "loss_at_play", "loss_at_comparator", "comparator"}
    old = np.frombuffer(base64.b64decode(json.loads(
        (tmp_path / "a" / "tiny" / "trace_maler.json").read_text())["plays"]["f8"]), dtype="<f8")
    gap = plays[3] - old[3]
    assert gap > 0.0 and gap == abs(np.spacing(plays[3]))
    assert table.pop("plays") == f"max abs {gap:.3e} rel {gap / max(abs(plays[3]), abs(old[3])):.3e}"
    assert set(table.values()) == {"max abs 0.000e+00 rel 0.000e+00"}


def test_the_tool_runs_the_benchmark_configs_with_the_default_algos():
    assert workloads.ALGOS == harness.DEFAULT_ALGOS
    reg, cls = workloads.WORKLOADS["reg-stream"], workloads.WORKLOADS["cls-libsvm"]
    bench = same_outputs.steps()[:-len(same_outputs.smoke_steps())]
    runs = [dict(zip(s[1][1::2], s[1][2::2])) for s in bench if s[0] == "maler"]
    assert [(r["--task"], r["--algos"], r["--rounds"], r.get("--dim"), r["--seed"])
            for r in runs] == [(w.task, ",".join(w.algos), str(w.rounds),
                                str(w.dim) if w is reg else None, str(seed))
                               for seed in (0, 7) for w in (reg, cls)]
    assert [s[2] for s in bench if s[0] == "libsvm"] == [
        {"examples": cls.examples, "dim": cls.dim, "seed": seed} for seed in (0, 7)]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The smoke plan's directory and what produce ran there. A command that lets an
    exception escape, a RuntimeWarning among them (pyproject.toml), errors each test."""
    workdir = str(tmp_path_factory.mktemp("smoke"))
    return workdir, same_outputs.produce(workdir, same_outputs.smoke_steps())


def test_the_smoke_plan_gives_what_it_expects(smoke):
    assert same_outputs.check(*smoke) == []


@pytest.mark.parametrize("name, old, new, miss", [
    (None, 1, 0, "run --rounds 1: exit 1, expected 0"),
    (None, "horizon", "dim", "run --rounds 1: no `error:` line names dim"),
    ("cls/report.txt", r"^certificates PASS for algo='ons'\n", "",
     "certify --trace cls/trace_ons.json: its stdout is not in cls/report.txt"),
    ("tiny/report.txt", r"gap=\S+", "gap=1e-3",
     "tiny/report.txt: comparator gap missing or above 1e-9 max(1, |value|)"),
    ("r20/report.txt", r"iterations=\d+", f"iterations={core.PGD_ITERS}",
     f"r20/report.txt: comparator ran {core.PGD_ITERS} of {core.PGD_ITERS} steps"),
    ("crlf/results.csv", r"\n", "\r\n", "crlf/results.csv differs from cls/results.csv"),
], ids=["exit-code", "error-field", "report-line", "gap", "r20-iterations", "crlf-results"])
def test_check_reports_each_kind_of_miss(smoke, tmp_path, name, old, new, miss):
    workdir, plan = shutil.copytree(smoke[0], tmp_path / "smoke"), same_outputs.smoke_steps()
    if name is None:  # the plan's `run --rounds 1` step, plan[1], expecting new for old
        plan[1] = tuple(new if part == old else part for part in plan[1])
    else:  # the file's first match of the pattern old, replaced by new
        path = workdir / name
        path.write_bytes(re.sub(old, new, path.read_bytes().decode(), count=1, flags=re.M).encode())
    assert same_outputs.check(str(workdir), smoke[1], plan) == [miss]
