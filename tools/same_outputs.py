"""Check that a git revision and the working tree write byte-identical outputs.

Usage: python tools/same_outputs.py REV

REV is checked out with `git worktree` into a temporary directory. Then one
fresh Python process per tree (REV first, then the working tree) runs every
step of `steps()` with that tree's `src/maler`:

- `maler run` on the benchmark's reg-stream and cls-libsvm configs
  (perfbench/workloads.py) at seeds 0 and 7;
- the `maler run` commands of the CI smoke step (.github/workflows/tests.yml),
  its refusals among them, and its edited copies of saved traces;
- `maler certify` on every trace written and on tests/data/trace_v1_maler.json.

Each process works in its own directory with relative paths, so the `wrote`
lines match. The tool prints one row per file that either tree wrote (input,
result, trace, report, and each command's stdout with its exit code): `same`
and the sha256, or `DIFF` and both. It exits 1 on any difference.

After the rows, each trace that differs is printed again, followed by one
row per array of either copy (f8 object or legacy nested list): its
largest absolute and relative difference, for a change that is meant to
move floats. When no trace differs, nothing is printed there.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEGACY_TRACE = os.path.join(REPO, "tests", "data", "trace_v1_maler.json")
REG_ALGOS = "maler,metagrad,ogd-convex,ogd-sc,ons"
CLS_ALGOS = "maler,metagrad,ogd-convex,ons"

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
    """What produce runs, in order: ("maler", argv) runs a command and records its
    stdout and exit code; ("libsvm", path, kwargs), ("e278", path), ("crlf", src, dst)
    and ("edit", src, dst, edit) make an input file."""
    out = []
    for seed in (0, 7):
        out += [("maler", ["run", "--task", "regression", "--algos", REG_ALGOS, "--rounds", "1000",
                           "--dim", "50", "--seed", str(seed), "--out", f"reg-stream-{seed}"]),
                ("libsvm", f"cls-libsvm-{seed}.libsvm", {"examples": 4000, "dim": 10, "seed": seed}),
                ("maler", ["run", "--task", "classification", "--algos", CLS_ALGOS, "--rounds",
                           "1000", "--seed", str(seed), "--data", f"cls-libsvm-{seed}.libsvm",
                           "--out", f"cls-libsvm-{seed}"])]
    out.append(("maler", ["run", "--out", "defaults"]))
    for flags in (["--rounds", "1"], ["--lambda", "1e300"], ["--algos", "nope"],
                  ["--algos", "maler,maler"], ["--rounds", "nan"], ["--seed", "-1"]):
        out.append(("maler", ["run", *flags]))
    out += [("maler", ["run", "--rounds", "20", "--dim", "5", "--out", "tiny"]),
            ("edit", "tiny/trace_maler.json", "edited/trace_tiny-alpha.json",
             _set(5e-324, "exp_concavity")),
            ("edit", "tiny/trace_maler.json", "edited/trace_huge-grad.json",
             _set_entry("grads", 3 * 5, 1e200)),
            ("edit", "tiny/trace_ons.json", "edited/trace_huge-g.json",
             _set(10**400, "params", "grad_bound")),
            ("edit", "tiny/trace_ons.json", "edited/trace_huge-center.json",
             _set(10**400, "dset", "center", 0)),
            ("edit", "tiny/trace_ons.json", "edited/trace_ons-alpha.json",
             _set(1e-200, "exp_concavity")),
            ("edit", "tiny/trace_ons.json", "edited/trace_true-g.json",
             _set(True, "params", "grad_bound")),
            ("edit", "legacy/trace_v1_maler.json", "edited/trace_legacy-true.json",
             _set(True, "loss_at_play", 0)),
            ("edit", "legacy/trace_v1_maler.json", "edited/trace_legacy-null.json",
             _set(None, "loss_at_play", 0)),
            ("libsvm", "train.libsvm", {}),
            ("maler", ["run", "--task", "classification", "--data", "train.libsvm", "--rounds", "20",
                       "--out", "cls"]),
            ("maler", ["run", "--task", "classification", "--data", "train.libsvm", "--radius",
                       "1e-300"]),
            ("crlf", "train.libsvm", "train-crlf.libsvm"),
            ("maler", ["run", "--task", "classification", "--data", "train-crlf.libsvm", "--rounds",
                       "20", "--out", "crlf"]),
            ("maler", ["run", "--task", "classification", "--data", "train.libsvm", "--rounds", "5",
                       "--out", "few"]),
            ("e278", "e278.libsvm"),
            ("maler", ["run", "--task", "classification", "--data", "e278.libsvm", "--rounds", "20",
                       "--out", "e278"]),
            ("maler", ["run", "--task", "classification", "--data", "e278.libsvm", "--rounds", "3",
                       "--batch", "4"])]
    for m in (130, 37):
        out += [("libsvm", f"small{m}.libsvm", {"examples": m, "dim": 5}),
                ("maler", ["run", "--task", "classification", "--data", f"small{m}.libsvm",
                           "--rounds", "20", "--batch", "50", "--out", f"cls{m}"])]
    out += [("maler", ["run", "--rounds", "20", "--dim", "50", "--out", "wide"]),
            ("maler", ["run", "--task", "classification", "--data", "small130.libsvm", "--radius",
                       "20", "--rounds", "50", "--out", "r20"]),
            ("libsvm", "two.libsvm", {"examples": 400, "dim": 2}),
            ("maler", ["run", "--task", "classification", "--data", "two.libsvm", "--rounds", "50",
                       "--batch", "50", "--out", "cls2"]),
            ("maler", ["run", "--rounds", "30", "--dim", "2", "--out", "reg2"])]
    return out


def produce(workdir: str, plan: list | None = None) -> None:
    """Run plan (default steps()) in workdir with the maler first on sys.path, then
    `maler certify` on every trace_*.json one level down; each command's stdout and
    exit code go to a file under stdout/, its stderr is dropped."""
    from conftest import write_e278_file  # as the CI smoke step makes it
    from maler import cli, harness

    def maler(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        name = re.sub(r"[^\w.,=-]+", "_", " ".join(argv))
        with open(os.path.join("stdout", f"{len(os.listdir('stdout')):03d} {name}.txt"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(f"{out.getvalue()}exit {rc}\n")

    cwd = os.getcwd()
    os.makedirs(os.path.join(workdir, "stdout"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "legacy"), exist_ok=True)
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
                with open(args[0], "rb") as fh:
                    blob = fh.read()
                with open(args[1], "wb") as fh:
                    fh.write(b"# CRLF copy\r\n" + blob.replace(b"\n", b"\r\n"))
            else:
                with open(args[0], encoding="utf-8") as fh:
                    obj = json.load(fh)
                args[2](obj)
                os.makedirs(os.path.dirname(args[1]), exist_ok=True)
                with open(args[1], "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
        for d in sorted(os.listdir(".")):
            if os.path.isdir(d) and d != "stdout":
                for f in sorted(os.listdir(d)):
                    if f.startswith("trace_") and f.endswith(".json"):
                        maler(["certify", "--trace", f"{d}/{f}"])
    finally:
        os.chdir(cwd)


def digest(workdir: str) -> dict:
    """{path relative to workdir: sha256 hex} of every file under workdir."""
    out = {}
    for root, _, files in os.walk(workdir):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, workdir)] = hashlib.sha256(fh.read()).hexdigest()
    return out


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
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    out = {}
    for key, val in obj.items():
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
        print("\n".join(rows))
        report = array_report(os.path.join(tmp, "out-rev"), os.path.join(tmp, "out-head"), rows)
        if report:
            print("\n".join(report))
    print(f"{len(rows)} files, {sum(not r.startswith('same') for r in rows)} differ "
          f"between {rev} and the working tree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
