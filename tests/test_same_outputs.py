"""The comparison part of tools/same_outputs.py, on a tiny config run twice in-process."""

import base64
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
import same_outputs  # noqa: E402

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
