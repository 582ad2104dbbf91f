"""Seeded fuzzing of the command line: one- and two-field mutations of saved traces
fed to `maler certify`, and out-of-range numbers, byte-edited LIBSVM files and
`--algos` values fed to `maler run`.

Every case must end in an exit code from cli.main, 0, 1 or 2 for certify and
0 or 1 for run (whose refusals exit 1), with no exception escaping it and no
RuntimeWarning (raised as an error here, as pyproject.toml does for the
whole suite).
"""

import base64
import copy
import json
import warnings

import numpy as np
import pytest

from conftest import write_e278_file
from maler import cli
from maler.harness import TRACE_ARRAYS, gen_classification_file

# The run whose maler and ons traces are mutated; its maler trace is the
# tamper tests' SMALL_RUN trace in tests/test_harness.py.
RUN = ["run", "--task", "regression", "--rounds", "6", "--dim", "2", "--batch", "5",
       "--seed", "4", "--algos", "maler,ons"]

# Values a scalar field of the trace is set to, one at a time.
SCALARS = [0, -1, 1, 2, 1.5, 1e-300, 5e-324, 1e300, 1e308, 10**400, float("inf"),
           float("-inf"), float("nan"), True, None, "x", [], {}]

# Values one array entry is set to, one at a time.
ENTRIES = [1e200, -1e200, 1e308, -1e308, float("inf"), float("-inf"), float("nan"), 0.0]

LABELS = ["maler", "metagrad", "ons", "ogd-sc", "ogd-convex", "bogus", None, 3]

# The numbers each `maler run` flag is given, one at a time.
RUN_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf"]

# The bytes a LIBSVM byte edit inserts or writes.
LIBSVM_BYTES = b"0123456789+-.:eE \t\n#naifINF,x"

# --algos values and the exit code each must give: empty, only commas, repeated,
# unknown, and with whitespace, which is part of the name.
ALGOS_VALUES = {"": 1, ",": 1, ",,": 1, "maler,maler": 1, "ons,maler,ons": 1, "bogus": 1,
                "maler,bogus": 1, "MALER": 1, " maler": 1, "maler ": 1, "maler, ons": 1,
                "\tmaler": 1, "maler;ons": 1, "maler,,ons": 0, ",ons,": 0}


def _show(value) -> str:
    """A short repr for a case id; 10**400 has 401 digits."""
    text = repr(value)
    return text if len(text) <= 12 else text[:9] + "..."


def _entry_set(name, index, value):
    def edit(obj):
        a = np.frombuffer(base64.b64decode(obj[name]["f8"]), dtype="<f8").copy()
        a[index % a.size] = value
        obj[name]["f8"] = base64.b64encode(a.tobytes()).decode()
    return edit


def _field_set(section, key, value):
    def edit(obj):
        if section is None:
            obj[key] = value
        else:
            obj[section][key] = value
    return edit


def _center_entry_set(index, value):
    def edit(obj):
        center = obj["dset"]["center"]
        center[index % len(center)] = value
    return edit


def _dropped(key):
    def edit(obj):
        del obj[key]
    return edit


def _trace_edits(obj, rng):
    """(case id, edit) for every one-field mutation of the trace obj; array indices
    and center entries are drawn from rng."""
    edits = []
    for section in ("params", "dset"):
        for key in obj[section]:
            edits += [(f"{section}.{key}={_show(v)}", _field_set(section, key, v))
                      for v in SCALARS]
    edits += [(f"dset.center[i]={_show(v)}", _center_entry_set(int(rng.integers(1 << 30)), v))
              for v in SCALARS[:13]]
    edits += [(f"{key}={_show(v)}", _field_set(None, key, v))
              for key in ("sc_modulus", "exp_concavity", "format") for v in SCALARS]
    edits += [(f"{key}={_show(v)}", _field_set(None, key, v))
              for key in ("algo", "grid_style") for v in LABELS]
    edits += [(f"drop {key}", _dropped(key)) for key in obj]
    for name in TRACE_ARRAYS:
        if obj[name] is not None:
            edits += [(f"{name}[i]={_show(v)}",
                       _entry_set(name, int(rng.integers(1 << 30)), v)) for v in ENTRIES]
    return edits


def _outcome(argv):
    """cli.main(argv)'s exit code, or the exception that escaped it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return cli.main(argv)
    except BaseException as exc:  # noqa: BLE001 - any escape is what this test reports
        return f"{type(exc).__name__}: {exc}"


def _byte_edited(blob: bytes, rng) -> bytes:
    """blob after 1 to 3 seeded insertions, deletions or replacements of one byte."""
    b = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(3))
        pos = int(rng.integers(len(b) + (op == 0)))
        byte = LIBSVM_BYTES[int(rng.integers(len(LIBSVM_BYTES)))]
        if op == 0:
            b.insert(pos, byte)
        elif op == 1:
            del b[pos]
        else:
            b[pos] = byte
    return bytes(b)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """The maler and ons traces of RUN, parsed from their JSON files."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    assert cli.main([*RUN, "--out", str(out)]) == 0
    return {algo: json.loads((out / f"trace_{algo}.json").read_text())
            for algo in ("maler", "ons")}


def _certify_mutants(tmp_path, algo, mutants) -> list:
    """certify each (case id, trace JSON) of mutants; the cases that went wrong."""
    bad = []
    for case, obj in mutants:
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(obj))
        rc = _outcome(["certify", "--trace", str(path)])
        if rc not in (0, 1, 2):
            bad.append(f"certify {algo} {case}: {rc}")
    return bad


def _edited(original, edits):
    """(case id, copy of original under edit) for each (case id, edit) of edits."""
    for case, edit in edits:
        obj = copy.deepcopy(original)
        edit(obj)
        yield case, obj


def test_cli_survives_seeded_one_field_mutations(tmp_path, capsys, traces):
    rng = np.random.default_rng(17)
    bad = []
    for algo, original in traces.items():
        bad += _certify_mutants(tmp_path, algo, _edited(original, _trace_edits(original, rng)))

    data = tmp_path / "d.libsvm"
    gen_classification_file(data, examples=20, dim=3, seed=1)
    regression = ["run", "--rounds", "3", "--dim", "2", "--batch", "4"]
    classification = ["run", "--task", "classification", "--data", str(data), "--rounds", "3",
                      "--batch", "4"]
    runs = [(base, flag) for base in (regression, classification)
            for flag in ("--batch", "--rounds")]
    runs += [(regression, "--lambda"), (regression, "--noise-std"), (classification, "--radius"),
             (regression, "--seed"), (classification, "--seed"), (regression, "--dim")]
    for base, flag in runs:
        for value in RUN_VALUES:
            rc = _outcome([*base, flag, value])
            if rc not in (0, 1):  # 2 means a failed certificate, not a refused flag
                bad.append(f"run {base[1:3]} {flag} {value}: {rc}")
    capsys.readouterr()
    assert not bad, "\n".join(bad)


def test_cli_survives_seeded_two_field_mutations(tmp_path, capsys, traces):
    # Seeded pairs of the one-field edits above, applied in turn. A pair whose
    # second edit cannot apply, as its field was dropped or replaced by the
    # first, is skipped.
    rng = np.random.default_rng(18)
    bad, tried = [], 0
    for algo, original in traces.items():
        edits = _trace_edits(original, rng)
        mutants = []
        for i, j in rng.integers(len(edits), size=(300, 2)):
            (a, first), (b, second) = edits[i], edits[j]
            obj = copy.deepcopy(original)
            try:
                first(obj)
                second(obj)
            except (KeyError, TypeError, IndexError, ZeroDivisionError):
                continue
            mutants.append((f"{a} & {b}", obj))
        tried += len(mutants)
        bad += _certify_mutants(tmp_path, algo, mutants)
    capsys.readouterr()
    assert tried >= 500
    assert not bad, "\n".join(bad)


def test_cli_survives_seeded_libsvm_byte_edits(tmp_path, capsys):
    rng = np.random.default_rng(19)
    path = tmp_path / "d.libsvm"
    write_e278_file(path)
    cases = [("E278", path.read_bytes())]
    gen_classification_file(path, examples=20, dim=3, seed=0)
    original = path.read_bytes()
    cases += [(f"edit {k}", _byte_edited(original, rng)) for k in range(200)]
    # 3 batches of 8 hold every one of the 20 rows.
    run = ["run", "--task", "classification", "--data", str(path), "--rounds", "3",
           "--batch", "8"]
    bad, codes = [], {}
    for case, blob in cases:
        path.write_bytes(blob)
        rc = codes[case] = _outcome(run)
        if rc not in (0, 1):
            bad.append(f"run {case}: {rc}")
    capsys.readouterr()
    assert not bad, "\n".join(bad)
    # The E278 file's squared row norm overflows; it runs (a mended defect).
    assert codes["E278"] == 0
    assert {0, 1} <= set(codes.values())


def test_cli_algos_values_are_run_or_refused(capsys):
    run = ["run", "--rounds", "3", "--dim", "2", "--batch", "4"]
    got = {value: _outcome([*run, "--algos", value]) for value in ALGOS_VALUES}
    capsys.readouterr()
    assert got == ALGOS_VALUES
