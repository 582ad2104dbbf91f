"""Check that a git revision and the working tree write byte-identical outputs.

Usage: python tools/same_outputs.py REV

REV is checked out with `git worktree` into a temporary directory. Then one fresh
Python process per tree (REV first) runs `steps()` with that tree's `src/maler`: the
benchmark's reg-stream and cls-libsvm configs (perfbench/workloads.py) at seeds 0 and
7, then the smoke plan, `smoke_steps()`, which tests/test_same_outputs.py holds to its
expectations through `check()`; then `maler certify` on every trace written and on
tests/data/trace_v1_maler.json.

Each process works in its own directory with relative paths, so the `wrote` lines
match. One row is printed per file that either tree wrote (input, result, trace,
report, and each command's stdout, stderr and exit code): `same` and the sha256, or
`DIFF` and both; the tool exits 1 on any difference. Then each trace that differs is
printed again, with one row per array of either copy (f8 object or legacy nested
list): its largest absolute and relative difference, for a change meant to move floats.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEGACY_TRACE = os.path.join(REPO, "tests", "data", "trace_v1_maler.json")
REG_ALGOS = "maler,metagrad,ogd-convex,ogd-sc,ons"
CLS_ALGOS = "maler,metagrad,ogd-convex,ons"
COMMAND_S = 60.0  # each smoke command's time limit

# The child process: the tree's src first on the path, then this directory and tests/.
CHILD = "import sys; sys.path[:0] = sys.argv[1:4]; import same_outputs; same_outputs.produce(sys.argv[4])"


def _set(value, *path):
    """An edit that sets the entry of a JSON trace at path (keys and list indices) to value."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _set_entry(name, index, value):
    def edit(obj):
        a = np.frombuffer(base64.b64decode(obj[name]["f8"]), dtype="<f8").copy()
        a[index] = value
        obj[name]["f8"] = base64.b64encode(a.tobytes()).decode("ascii")
    return edit


def steps() -> list:
    """What produce runs by default: the benchmark's reg-stream and cls-libsvm configs at
    seeds 0 and 7, then smoke_steps()."""
    out = []
    for seed in (0, 7):
        out += [("maler", ["run", "--task", "regression", "--algos", REG_ALGOS, "--rounds", "1000",
                           "--dim", "50", "--seed", str(seed), "--out", f"reg-stream-{seed}"]),
                ("libsvm", f"cls-libsvm-{seed}.libsvm", {"examples": 4000, "dim": 10, "seed": seed}),
                ("maler", ["run", "--task", "classification", "--algos", CLS_ALGOS, "--rounds",
                           "1000", "--seed", str(seed), "--data", f"cls-libsvm-{seed}.libsvm",
                           "--out", f"cls-libsvm-{seed}"])]
    return out + smoke_steps()


def smoke_steps() -> list:
    """The smoke plan. ("maler", argv) runs a command that must exit 0, ("maler", argv, rc,
    field) one that must exit rc and, unless field is None, print an `error:` line naming
    field. ("edit", src, dst, edit, rc, field) writes trace src changed by edit(obj) to dst,
    whose certify must give rc and field alike. ("libsvm", path, kwargs), ("e278", path)
    and ("crlf", src, dst) make an input file. check() lists what else the outputs owe."""
    out = [("maler", ["run", "--out", "defaults"]),  # every default but --out
           ("maler", ["run", "--rounds", "1"], 1, "horizon"),  # no expert grid covers T = 1
           ("maler", ["run", "--lambda", "1e300"], 1, "--lambda"),  # G^2 overflows
           ("maler", ["run", "--lambda", "1e-200"], 1, "--lambda"),  # ONS's I/(beta D)^2 overflows
           ("maler", ["run", "--algos", "nope"], 1, "algo"),
           ("maler", ["run", "--algos", "maler,maler"], 1, "--algos"),
           ("maler", ["run", "--rounds", "nan"], 1, "--rounds"),  # a usage error, one line
           ("maler", ["run", "--seed", "-1"], 1, "--seed"),
           ("maler", ["run", "--rounds", "20", "--dim", "5", "--out", "tiny"])]
    # Edited copies of tiny's traces and of the committed legacy one (nested lists): an
    # infinite regret cap, a failed assumption (exit 2), numbers too large for a float,
    # ONS's metric I/(beta D)^2 overflowing (as `maler run --lambda 1e-200` refuses), a
    # bool or null for a number, and traces that no learner writes.
    maler, ons, legacy = "tiny/trace_maler.json", "tiny/trace_ons.json", "legacy/trace_v1_maler.json"
    for src, name, edit, rc, field in [
            (maler, "tiny-alpha", _set(5e-324, "exp_concavity"), 1, "exp_concavity"),
            (maler, "huge-grad", _set_entry("grads", 3 * 5, 1e200), 2, None),
            (ons, "huge-g", _set(10**400, "params", "grad_bound"), 1, "grad_bound"),
            (ons, "huge-h", _set(10**400, "params", "horizon"), 1, "horizon"),
            (ons, "huge-center", _set(10**400, "dset", "center", 0), 1, "dset.center"),
            (ons, "ons-alpha", _set(1e-200, "exp_concavity"), 1, "exp_concavity"),
            (ons, "true-g", _set(True, "params", "grad_bound"), 1, "grad_bound"),
            (legacy, "legacy-true", _set(True, "loss_at_play", 0), 1, "loss_at_play"),
            (legacy, "legacy-null", _set(None, "loss_at_play", 0), 1, "loss_at_play"),
            (ons, "algo-nope", _set("nope", "algo"), 1, "algo"),
            (ons, "algo-42", _set(42, "algo"), 1, "algo"),
            (ons, "algo-null", _set(None, "algo"), 1, "algo"),
            (ons, "ons-alpha-null", _set(None, "exp_concavity"), 1, "exp_concavity"),
            ("tiny/trace_ogd-sc.json", "sc-null", _set(None, "sc_modulus"), 1, "sc_modulus")]:
        out.append(("edit", src, f"edited/trace_{name}.json", edit, rc, field))
    cls = ["run", "--task", "classification", "--data"]
    out += [("libsvm", "train.libsvm", {}),
            ("maler", [*cls, "train.libsvm", "--rounds", "20", "--out", "cls"]),
            # Classification has no strong-convexity modulus for ogd-sc to step by.
            ("maler", [*cls, "train.libsvm", "--algos", "ogd-sc"], 1, "ogd-sc"),
            ("maler", [*cls, "train.libsvm", "--radius", "1e-300"], 1, "diameter"),  # D^2 = 0
            # alpha = exp(-700): ONS's metric I/(beta D)^2 overflows.
            ("maler", [*cls, "train.libsvm", "--radius", "700"], 1, "--radius"),
            ("crlf", "train.libsvm", "train-crlf.libsvm"),  # `#`-headed; same results.csv
            ("maler", [*cls, "train-crlf.libsvm", "--rounds", "20", "--out", "crlf"]),
            # 1000 of the 4000 rows: most rows have a zero count in the summed loss.
            ("maler", [*cls, "train.libsvm", "--rounds", "5", "--out", "few"]),
            # A row whose squared norm overflows runs with no RuntimeWarning.
            ("e278", "e278.libsvm"),
            ("maler", [*cls, "e278.libsvm", "--rounds", "20", "--out", "e278"]),
            ("maler", [*cls, "e278.libsvm", "--rounds", "3", "--batch", "4"], 1, "--data")]
    # Batches of 50 wrap around a file of 130 (not a multiple) and of 37 (fewer) examples.
    for m in (130, 37):
        out += [("libsvm", f"small{m}.libsvm", {"examples": m, "dim": 5}),
                ("maler", [*cls, f"small{m}.libsvm", "--rounds", "20", "--batch", "50",
                           "--out", f"cls{m}"])]
    # T < d: the expert-regret certificate minimizes singular surrogate sums. r20's
    # comparator must converge; cls2 and reg2 guard against a comparator check whose
    # cost grows with rounds x batch (COMMAND_S).
    out += [("maler", ["run", "--rounds", "20", "--dim", "50", "--out", "wide"]),
            ("maler", [*cls, "small130.libsvm", "--radius", "20", "--rounds", "50", "--out", "r20"]),
            ("libsvm", "two.libsvm", {"examples": 400, "dim": 2}),
            ("maler", [*cls, "two.libsvm", "--rounds", "50", "--batch", "50", "--out", "cls2"]),
            ("maler", ["run", "--rounds", "30", "--dim", "2", "--out", "reg2"])]
    return out


def produce(workdir: str, plan: list | None = None) -> dict:
    """Run plan (default steps()) in workdir with the maler first on sys.path, then `maler
    certify` on every trace_*.json one level down. Each command's stdout, stderr and exit
    code go to a file under stdout/; returns {command: (exit code, stdout, stderr, s)}."""
    from conftest import write_e278_file
    from maler import cli, harness

    ran = {}

    def maler(argv, *expectations):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        ran[" ".join(argv)] = (rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)
        name = re.sub(r"[^\w.,=-]+", "_", " ".join(argv))
        pathlib.Path("stdout", f"{len(os.listdir('stdout')):03d} {name}.txt").write_text(
            f"{out.getvalue()}{err.getvalue()}exit {rc}\n", encoding="utf-8", newline="\n")

    cwd = os.getcwd()
    for d in ("stdout", "legacy"):
        os.makedirs(os.path.join(workdir, d), exist_ok=True)
    shutil.copyfile(LEGACY_TRACE, os.path.join(workdir, "legacy", "trace_v1_maler.json"))
    os.chdir(workdir)
    try:
        for kind, *args in steps() if plan is None else plan:
            if kind == "maler":
                maler(*args)
            elif kind == "libsvm":
                harness.gen_classification_file(args[0], **args[1])
            elif kind == "e278":
                write_e278_file(args[0])
            elif kind == "crlf":
                blob = pathlib.Path(args[0]).read_bytes().replace(b"\n", b"\r\n")
                pathlib.Path(args[1]).write_bytes(b"# CRLF copy\r\n" + blob)
            else:
                obj = json.loads(pathlib.Path(args[0]).read_bytes())
                args[2](obj)
                os.makedirs(os.path.dirname(args[1]), exist_ok=True)
                pathlib.Path(args[1]).write_text(json.dumps(obj), encoding="utf-8")
        for d in sorted(os.listdir(".")):
            if os.path.isdir(d) and d != "stdout":
                for f in sorted(os.listdir(d)):
                    if f.startswith("trace_") and f.endswith(".json"):
                        maler(["certify", "--trace", f"{d}/{f}"])
    finally:
        os.chdir(cwd)
    return ran


def check(workdir: str, ran: dict, plan: list | None = None) -> list:
    """One line per expectation of plan (default smoke_steps()) that ran, what produce ran in
    workdir, misses; [] if none. Beyond each step's exit code and `error:` field: every
    other trace certifies with exit 0, its stdout verbatim in report.txt if a run wrote its
    directory; each report's comparator gap is at most 1e-9 max(1, |value|); r20 stops
    before core.PGD_ITERS steps; crlf's results.csv is cls's; no command takes COMMAND_S."""
    from maler.core import PGD_ITERS

    def read(name):  # a file's text as written, or "" if there is none
        path = pathlib.Path(workdir, name)
        return path.read_bytes().decode() if path.is_file() else ""

    want, outs = {}, []  # {command: (exit code, error field)}; the runs' --out directories
    for kind, *args in smoke_steps() if plan is None else plan:
        if kind == "maler":
            want[" ".join(args[0])] = tuple(args[1:]) or (0, None)
            outs += [value for flag, value in zip(args[0], args[0][1:]) if flag == "--out"]
        elif kind == "edit":
            want[f"certify --trace {args[1]}"] = tuple(args[3:])
    misses = [f"{command}: not run" for command in want if command not in ran]
    for command, (rc, out, err, seconds) in ran.items():
        rc_wanted, field = want.get(command, (0, None))
        if rc != rc_wanted:
            misses.append(f"{command}: exit {rc}, expected {rc_wanted}")
        if field and not re.search(rf"^error: .*{re.escape(field)}", err, re.M):
            misses.append(f"{command}: no `error:` line names {field}")
        if seconds >= COMMAND_S:
            misses.append(f"{command}: took {seconds:.1f} s")
        report = f"{os.path.dirname(command.split(' ')[-1])}/report.txt"
        if (command.startswith("certify") and os.path.dirname(report) in outs
                and out not in read(report)):
            misses.append(f"{command}: its stdout is not in {report}")
    for d in outs:
        line = re.search(r"^comparator: iterations=(\d+) gap=(\S+) value=(\S+)$",
                         read(f"{d}/report.txt"), re.M)
        if not line or not float(line[2]) <= 1e-9 * max(1.0, abs(float(line[3]))):
            misses.append(f"{d}/report.txt: comparator gap missing or above 1e-9 max(1, |value|)")
        elif d == "r20" and int(line[1]) >= PGD_ITERS:
            misses.append(f"r20/report.txt: comparator ran {line[1]} of {PGD_ITERS} steps")
    if read("crlf/results.csv") != read("cls/results.csv"):
        misses.append("crlf/results.csv differs from cls/results.csv")
    return misses


def digest(workdir: str) -> dict:
    """{path relative to workdir: sha256 hex} of every file under workdir."""
    paths = [os.path.join(root, f) for root, _, files in os.walk(workdir) for f in files]
    return {os.path.relpath(p, workdir): hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
            for p in paths}


def compare(old: dict, new: dict) -> tuple:
    """(rows, ok): per file of either digest, `same <sha256> <name>` or
    `DIFF <old>/<new> <name>` ("-" where a tree lacks the file); ok if all are same."""
    rows = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, "-"), new.get(name, "-")
        rows.append(f"same {b} {name}" if a == b else f"DIFF {a}/{b} {name}")
    return rows, all(r.startswith("same") for r in rows)


def _arrays(path: str) -> dict:
    """{key: float array} of a trace's top-level arrays, in either layout; other entries
    (and a list that is not all numbers) are left out."""
    out = {}
    for key, val in json.loads(pathlib.Path(path).read_bytes()).items():
        if isinstance(val, dict) and set(val) == {"shape", "f8"}:
            raw = base64.b64decode(val["f8"])
            out[key] = np.frombuffer(raw, dtype="<f8").reshape(val["shape"])
        elif isinstance(val, list):
            with contextlib.suppress(TypeError, ValueError, OverflowError):
                out[key] = np.asarray(val, dtype=float)
    return out


def array_rows(old_path: str, new_path: str) -> list:
    """`key: max abs A rel R` for every array of either trace, R taken against the larger
    magnitude of the two entries; entries equal (or both NaN) differ by 0, any other
    pair that gives no finite difference (a NaN, or infinities) by inf."""
    old, new = _arrays(old_path), _arrays(new_path)
    rows = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None or a.shape != b.shape:
            shapes = [("-" if x is None else str(x.shape)) for x in (a, b)]
            rows.append(f"{key}: shape {shapes[0]} vs {shapes[1]}")
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            gap = np.where(same, 0.0, np.abs(a - b))
            rel = np.where(same, 0.0, gap / np.maximum(np.abs(a), np.abs(b)))
        gap, rel = (np.where(np.isnan(x), np.inf, x) for x in (gap, rel))
        rows.append(f"{key}: max abs {gap.max(initial=0.0):.3e} rel {rel.max(initial=0.0):.3e}")
    return rows


def array_report(old_dir: str, new_dir: str, rows: list) -> list:
    """For each DIFF row of compare naming a trace_*.json that both trees wrote, that
    row and then array_rows of the pair, indented."""
    out = []
    for row in rows:
        name = row.split(" ", 2)[2]
        pair = [os.path.join(old_dir, name), os.path.join(new_dir, name)]
        if (row.startswith("DIFF") and re.fullmatch(r"trace_.*\.json", os.path.basename(name))
                and all(map(os.path.isfile, pair))):
            out += [row] + [f"    {r}" for r in array_rows(*pair)]
    return out


def _run_tree(src: str, workdir: str) -> dict:
    os.makedirs(workdir)
    subprocess.run([sys.executable, "-c", CHILD, src, os.path.join(REPO, "tools"),
                    os.path.join(REPO, "tests"), workdir], check=True)
    return digest(workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tree = os.path.join(tmp, "rev")
        subprocess.run(["git", "-C", REPO, "worktree", "add", "--quiet", "--detach", tree, rev],
                       check=True)
        try:
            old = _run_tree(os.path.join(tree, "src"), os.path.join(tmp, "out-rev"))
        finally:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", tree], check=False)
        new = _run_tree(os.path.join(REPO, "src"), os.path.join(tmp, "out-head"))
        rows, ok = compare(old, new)
        print("\n".join(rows + array_report(os.path.join(tmp, "out-rev"),
                                            os.path.join(tmp, "out-head"), rows)))
    print(f"{len(rows)} files, {sum(not r.startswith('same') for r in rows)} differ "
          f"between {rev} and the working tree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
