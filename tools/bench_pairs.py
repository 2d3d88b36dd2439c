"""Alternating parent/change pairs of the benchmark, written to BENCH_<name>.json.

    python3 tools/bench_pairs.py --name nested_grids --parent HEAD \\
        --case catalog:0 --case catalog:1 --pairs 10 --seconds 20 \\
        --change "what the change does"

Both sides are exported alike, by ``git archive`` into sibling directories
``parent`` and ``change`` of one temporary directory: the parent revision's
tree, and the working tree's, written through a throwaway index
(``GIT_INDEX_FILE=<tmp>/index git add -A && git write-tree``) that keeps the
untracked files .gitignore does not name and leaves the repository's own index
and files alone.  ``--parent HEAD`` on a clean tree is thus an A/A run.  Each
pair runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0`` once
per side, one run at a time, the parent first in odd-numbered pairs.  Both
sides are exported afresh before every pair, in the order that pair runs them:
with the parent always extracted first, the change side of an A/A run won 2 of
10 catalog pairs, and 5 of 10 with the order reversed.  The file
records both tree ids, whether their perfbench subtrees are the same, every
run's metrics, each side's quartiles, the median change of each metric, how
many pairs the change won, and two verdicts.  A gain may be claimed when the
change wins at least nine pairs in ten, its median is better by more than the
parent's interquartile range, and it fails no larger share of operations.  The
bound check reads "within" or "beyond" the benchmark's bound on the median
change, or "unresolved" when the parent's interquartile range is wider than
the bound, unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import io
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


def _git(root: Path, *args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=root, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def side_trees(root: Path, parent: str, scratch: Path) -> dict:
    """The tree ids of the parent and of the working tree, and what the BENCH
    file records of them."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    _git(root, "add", "-A", env=env)
    trees = {"parent": _git(root, "rev-parse", f"{parent}^{{tree}}"),
             "change": _git(root, "write-tree", env=env)}
    return {"parent_tree": trees["parent"], "change_tree": trees["change"],
            "change_tree_dirty": trees["change"] != _git(root, "rev-parse", "HEAD^{tree}"),
            # _work/, _out/ and __pycache__/ are ignored, so never in a tree
            "benchmark_identical": len({_git(root, "rev-parse", f"{tree}:perfbench")
                                        for tree in trees.values()}) == 1}


def extract(root: Path, tree: str, dest: Path) -> None:
    """dest, emptied, then unpacked from a git archive of tree."""
    shutil.rmtree(dest, ignore_errors=True)
    archive = subprocess.run(["git", "archive", tree], cwd=root, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, refuses links out of tree
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


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
    doc = {
        "change": args.change,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0",
        "protocol": "alternating parent/change pairs, odd-numbered pairs parent first, one run "
                    "at a time; both sides git archives in sibling directories, the parent of "
                    "its revision's tree, the change of the working tree's (untracked files "
                    "kept), exported afresh before each pair in the order it runs them; "
                    "--parent HEAD on a clean tree is an A/A run (tools/bench_pairs.py)",
        "parent": _git(ROOT, "rev-parse", args.parent),
        "change_base": _git(ROOT, "rev-parse", "HEAD"),
    }

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        doc.update(side_trees(ROOT, args.parent, scratch), cases={})
        for workload, seed in cases:
            runs = []
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                record = {"pair": pair, "first": order[0]}
                for side in order:
                    extract(ROOT, doc[f"{side}_tree"], scratch / side)
                for side in order:
                    record[side] = run_once(scratch / side, workload, seed, args.seconds)
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
