"""Alternating parent/change pairs of the benchmark, written to BENCH_<name>.json.

    python3 tools/bench_pairs.py --name nested_grids --parent HEAD \\
        --case catalog:0 --case catalog:1 --pairs 10 --seconds 20 \\
        --change "what the change does"

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
once on each side, one run at a time: the parent side from a ``git archive``
of the parent revision, the change side from the working tree.  Odd-numbered
pairs run the parent first, even-numbered ones the change.  The file holds
every run's metrics, each side's quartiles, the median change of each metric,
how many pairs the change won, and two verdicts.  A gain may be claimed when
the change wins at least nine pairs in ten, its median is better by more than
the parent's interquartile range, and it fails no larger share of operations.
The bound check reads "within" or "beyond" the benchmark's bound on the
median change, or "unresolved" when the parent's interquartile range is wider
than the bound, unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_parent(rev: str, into: Path) -> Path:
    """The tree of rev, unpacked under into from a git archive."""
    tree = into / "parent"
    archive = into / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        # the "data" filter, where this Python has it, refuses links out of tree
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return tree


def same_benchmark(a: Path, b: Path) -> bool:
    """Whether both trees hold the same perfbench files (outputs aside)."""
    cmp = filecmp.dircmp(a / "perfbench", b / "perfbench", ignore=["_work", "_out", "__pycache__"])
    pending = [cmp]
    while pending:
        d = pending.pop()
        if d.left_only or d.right_only or d.diff_files or d.funny_files:
            return False
        _, mismatch, errors = filecmp.cmpfiles(d.left, d.right, d.common_files, shallow=False)
        if mismatch or errors:
            return False
        pending.extend(d.subdirs.values())
    return True


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its closing JSON line plus the machine line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=600 + 10 * seconds)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
    return result


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def _totals(runs: list[dict], key: str) -> dict:
    return {side: sum(r[side][key] for r in runs) for side in SIDES}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's quartiles, the median change, the pairs the
    change won, whether a gain may be claimed, and the bound check."""
    failed, attempted = _totals(runs, "failed"), _totals(runs, "attempted")
    # a larger share of failed operations voids a gain
    fails_more = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    out = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        parent, change = (_quartiles(values[side]) for side in SIDES)
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        delta = change[1] - parent[1]
        iqr = parent[2] - parent[0]
        # every change run better than every parent run settles a wide spread
        clear = max(sign * v for v in values["change"]) < min(sign * v for v in values["parent"])
        if iqr > bound * abs(parent[1]) and not clear:
            bound_check = "unresolved"
        else:
            bound_check = "within" if sign * delta <= bound * abs(parent[1]) else "beyond"
        out[name] = {
            "unit": spec["unit"],
            "parent_q1_median_q3": [round(v, 6) for v in parent],
            "change_q1_median_q3": [round(v, 6) for v in change],
            "change_vs_parent_median": round(delta / parent[1], 4) if parent[1] else None,
            "parent_iqr_over_median": round(iqr / parent[1], 4) if parent[1] else None,
            "change_wins": f"{wins}/{len(runs)}",
            "gain_claimable": (wins >= 0.9 * len(runs) and sign * delta < 0.0
                               and abs(delta) > iqr and not fails_more),
            "bound": bound,
            "bound_check": bound_check,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json at the root")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--case", action="append", required=True, metavar="WORKLOAD:SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--change", default="", help="one line saying what the change does")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        parser.error("--pairs and --seconds must be positive")
    cases = []
    for case in args.case:
        workload, _, seed = case.partition(":")
        try:
            cases.append((workload, int(seed or 0)))
        except ValueError:
            parser.error(f"--case wants WORKLOAD:SEED, got {case!r}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = ROOT / f"BENCH_{args.name}.json"
    parent_rev = _git("rev-parse", args.parent)
    doc = {
        "change": args.change,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0",
        "protocol": "alternating parent/change pairs, odd-numbered pairs parent first, one run "
                    "at a time; the parent from a git archive of its revision, the change "
                    "from the working tree (tools/bench_pairs.py)",
        "parent": parent_rev,
        "change_base": _git("rev-parse", "HEAD"),
        "change_tree_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "cases": {},
    }

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {"parent": export_parent(parent_rev, scratch), "change": ROOT}
        doc["benchmark_identical"] = same_benchmark(trees["parent"], trees["change"])
        for workload, seed in cases:
            runs = []
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                record = {"pair": pair, "first": order[0]}
                for side in order:
                    record[side] = run_once(trees[side], workload, seed, args.seconds)
                    doc.setdefault("machine", record[side].pop("machine", None))
                runs.append(record)
                print(f"{workload} seed {seed} pair {pair}: " + ", ".join(
                    f"{side} pass_s {record[side]['metrics']['pass_s']['value']:.6g}"
                    for side in SIDES), file=sys.stderr)
            doc["cases"][f"{workload} seed {seed}"] = {
                "seconds": args.seconds,
                "pairs": args.pairs,
                "correct": all(r[side]["correct"] for r in runs for side in SIDES),
                "failed": _totals(runs, "failed"),
                "attempted": _totals(runs, "attempted"),
                "summary": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
            target.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {target.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
