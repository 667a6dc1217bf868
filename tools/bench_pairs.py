"""Paired benchmark runs of two revisions, written as a ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_9.json
    python3 tools/bench_pairs.py --parent HEAD --change . --out BENCH_9.json

Each revision is frozen first: ``git archive`` of a commit, or, for ``.``,
a copy of the working tree's tracked and untracked-but-not-ignored files.
Then, per workload of the change's ``BENCHMARK.json``, ten pairs of
``python3 bench/run.py --workload W --seed i --seconds S`` (S its
``run_seconds``) run one after the other, each in its own frozen copy:
seed = pair index 1..10, odd pairs parent first, even pairs change first.
The summary gives, for every end-to-end metric that the change's
``BENCHMARK.json`` lists, the median and quartiles (linear interpolation)
over the ten runs of each side, ``pairs_better`` (the pairs in which the
change is better), ``pairs_equal`` and the ratio of the medians.  It also
applies the two rules a result is judged by: ``beats_parent_iqr`` (the
change's median is better than the parent's by more than ``parent_iqr``,
the parent's q3 - q1) for a claimed gain, and ``within_bound`` (the
change's median is worse than the parent's by at most the metric's
``bound``, a fraction of the parent's median) for every metric.

When a run exits non-zero, the script stops there: it writes the runs so
far to ``--out``, with the failed run's workload, pair, side, exit code and
the tail of its stderr under ``failed_run`` (and no summary), and exits 1.

The script only runs ``bench/run.py`` as a subprocess; it imports nothing
from ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKING_TREE = "."
PAIRS = 10
STDERR_TAIL = 20  # lines of a failed run's stderr kept in the report


class RunFailed(Exception):
    """A ``bench/run.py`` run exited non-zero."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(f"bench/run.py exited {returncode}")
        self.returncode = returncode
        self.stderr_tail = stderr.splitlines()[-STDERR_TAIL:]


def freeze(rev: str, dest: Path) -> str:
    """Copy revision ``rev`` (a commit, or ``.``) to ``dest``; returns its name."""
    dest.mkdir(parents=True)
    if rev == WORKING_TREE:
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.decode().split("\0")
        for name in filter(None, files):
            src = ROOT / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        head = git("rev-parse", "HEAD")
        return f"working tree on {head}"
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return git("rev-parse", rev)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``; its final JSON line, or
    ``RunFailed`` on a non-zero exit."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(trees: dict, workloads: list, seconds: float, runs: list) -> dict | None:
    """Append each finished run to ``runs``; stop at the first failing run
    and return its workload, pair, side, exit code and stderr tail."""
    for workload in workloads:
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                try:
                    result = bench_run(trees[side], workload, pair, seconds)
                except RunFailed as exc:
                    return {"workload": workload, "pair": pair, "side": side,
                            "exit_code": exc.returncode, "stderr_tail": exc.stderr_tail}
                runs.append({"workload": workload, "pair": pair, "side": side, "result": result})
                value = result["metrics"]["pricings_per_s"]["value"]
                print(f"{workload} pair {pair} {side}: {value:.4g} pricings/s", flush=True)
    return None


def stats(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6)}


def summarize(runs: list, workloads: list, metrics: list) -> dict:
    summary = {}
    for workload in workloads:
        by_side = {
            side: sorted((r for r in runs if r["workload"] == workload and r["side"] == side),
                         key=lambda r: r["pair"])
            for side in ("parent", "change")
        }
        end_to_end = {}
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["result"]["metrics"][name]["value"] for r in rs]
                      for side, rs in by_side.items()}
            sign = 1.0 if metric["better"] == "higher" else -1.0
            diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            parent, change = stats(values["parent"]), stats(values["change"])
            gain = sign * (change["median"] - parent["median"])
            parent_iqr = round(parent["q3"] - parent["q1"], 6)
            end_to_end[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": parent,
                "change": change,
                "pairs": len(diffs),
                "pairs_better": sum(d > 0.0 for d in diffs),
                "pairs_equal": sum(d == 0.0 for d in diffs),
                "median_ratio_change_over_parent": (
                    round(change["median"] / parent["median"], 4) if parent["median"] else None
                ),
                "parent_iqr": parent_iqr,
                "beats_parent_iqr": gain > parent_iqr,
                "within_bound": -gain <= metric["bound"] * abs(parent["median"]),
            }
        summary[workload] = {
            "end_to_end": end_to_end,
            "attempted": {s: sum(r["result"]["attempted"] for r in rs) for s, rs in by_side.items()},
            "failed": {s: sum(r["result"]["failed"] for r in rs) for s, rs in by_side.items()},
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit, or . for the working tree")
    parser.add_argument("--change", required=True, help="commit, or . for the working tree")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--workdir", default=None, help="where the frozen copies go")
    parser.add_argument("--note", default="", help="appended to the 'what' field")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    names = {side: freeze(getattr(args, side), tree) for side, tree in trees.items()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = []
    failed = run_pairs(trees, workloads, seconds, runs)
    report = {
        "what": (
            f"python3 bench/run.py --workload W --seed i ({seconds:g} s runs) on frozen "
            f"copies of the parent commit and of this change: {PAIRS} alternating pairs "
            "per workload, seed = pair index, odd pairs parent first; medians and quartiles "
            "over the runs of each side; pairs_better counts the pairs in which the change "
            "is better on that metric. " + args.note
        ).strip(),
        "parent_commit": names["parent"],
        "change": names["change"],
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
    }
    if failed is None:
        report["summary"] = summarize(runs, workloads, spec["end_to_end"])
    else:
        report["failed_run"] = failed
        print(f"{failed['workload']} pair {failed['pair']} {failed['side']} exited "
              f"{failed['exit_code']}; {len(runs)} finished runs written to {args.out}",
              file=sys.stderr)
    report["runs"] = runs
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if failed is None else 1


if __name__ == "__main__":
    sys.exit(main())
