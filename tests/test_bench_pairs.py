"""tools/bench_pairs.py: the export of both sides and the per-metric summary
of alternating pairs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PASS_S = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}]
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


def _runs(parent, change, failed=(0, 0)):
    """Pairs of runs of 100 operations each; failed is (parent, change) per run."""
    return [{side: {"metrics": {"pass_s": {"value": v}}, "failed": f, "attempted": 100}
             for side, v, f in zip(bench_pairs.SIDES, pair, failed)}
            for pair in zip(parent, change)]


def _row(parent, change, **kw):
    return bench_pairs.summarize(_runs(parent, change, **kw), PASS_S)["pass_s"]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parent_spread():
    faster = [v * 0.85 for v in PARENT]
    row = _row(PARENT, faster)
    assert row["change_wins"] == "10/10" and row["gain_claimable"]
    assert row["bound_check"] == "within"
    assert row["change_vs_parent_median"] == -0.15
    # one tie and one loss leave 8 wins in 10: no claim, though the median moved
    mixed = faster[:8] + [PARENT[8], PARENT[9] * 1.01]
    row = _row(PARENT, mixed)
    assert row["change_wins"] == "8/10" and not row["gain_claimable"]


def test_a_gain_is_a_median_moved_the_better_way():
    # for a higher-is-better metric a gain is a higher median, and a lower one
    # is a loss measured against the bound.  (Nine wins in ten already keep the
    # median from moving the wrong way by more than the parent's spread.)
    spec = [{"name": "pass_s", "unit": "ops/s", "better": "higher", "bound": 0.25}]
    higher = bench_pairs.summarize(_runs(PARENT, [v * 1.15 for v in PARENT]), spec)["pass_s"]
    assert higher["change_wins"] == "10/10" and higher["gain_claimable"]
    lower = bench_pairs.summarize(_runs(PARENT, [v * 0.7 for v in PARENT]), spec)["pass_s"]
    assert lower["change_wins"] == "0/10" and not lower["gain_claimable"]
    assert lower["bound_check"] == "beyond"


def test_more_failed_operations_void_a_gain():
    faster = [v * 0.85 for v in PARENT]
    assert _row(PARENT, faster, failed=(1, 1))["gain_claimable"]
    assert not _row(PARENT, faster, failed=(0, 1))["gain_claimable"]


def test_a_slower_change_beyond_the_bound_is_flagged():
    parent = [1.0, 1.1, 0.9, 1.0]
    row = _row(parent, [v * 1.3 for v in parent])
    assert row["change_wins"] == "0/4" and row["bound_check"] == "beyond"
    assert row["parent_q1_median_q3"] == [0.975, 1.0, 1.025]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [0.6, 1.0, 1.4, 0.6, 1.0, 1.4]  # IQR 0.6 against a bound of 0.25
    row = _row(parent, [1.0] * 6)
    assert row["bound_check"] == "unresolved"
    # unless every change run beats every parent run
    assert _row(parent, [0.5] * 6)["bound_check"] == "within"


# --- export of both sides ----------------------------------------------------

def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A committed repository holding a perfbench file, a tracked file and a
    .gitignore that names the benchmark's outputs."""
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("print('v1')\n")
    (root / "notes.txt").write_text("parent\n")
    (root / ".gitignore").write_text("/perfbench/_work/\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "parent")
    return root


def _export(repo, tmp_path):
    """export_sides against HEAD, with the repository's status and staged
    entries checked to be the same before and after it."""
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    before = (_git(repo, "status", "--porcelain"), _git(repo, "ls-files", "--stage"))
    sides = bench_pairs.export_sides(repo, "HEAD", scratch)
    assert (_git(repo, "status", "--porcelain"), _git(repo, "ls-files", "--stage")) == before
    return sides, scratch


def test_a_clean_tree_exports_the_parent_tree_twice(repo, tmp_path):
    sides, scratch = _export(repo, tmp_path)
    head = _git(repo, "rev-parse", "HEAD^{tree}")
    assert sides == {"parent_tree": head, "change_tree": head, "change_tree_dirty": False,
                     "benchmark_identical": True}
    for side in bench_pairs.SIDES:
        assert (scratch / side / "notes.txt").read_text() == "parent\n"
        assert (scratch / side / "perfbench" / "run.py").is_file()


def test_the_change_side_holds_edits_and_untracked_files(repo, tmp_path):
    (repo / "notes.txt").write_text("change\n")
    (repo / "new.txt").write_text("untracked\n")
    (repo / "perfbench" / "_work").mkdir()
    (repo / "perfbench" / "_work" / "out.json").write_text("{}\n")
    sides, scratch = _export(repo, tmp_path)
    assert sides["parent_tree"] == _git(repo, "rev-parse", "HEAD^{tree}")
    assert sides["change_tree_dirty"] and sides["benchmark_identical"]
    assert (scratch / "parent" / "notes.txt").read_text() == "parent\n"
    assert not (scratch / "parent" / "new.txt").exists()
    assert (scratch / "change" / "notes.txt").read_text() == "change\n"
    assert (scratch / "change" / "new.txt").read_text() == "untracked\n"
    # what .gitignore names stays behind
    assert not (scratch / "change" / "perfbench" / "_work").exists()


def test_an_edit_under_perfbench_makes_the_benchmarks_differ(repo, tmp_path):
    (repo / "perfbench" / "run.py").write_text("print('v2')\n")
    sides, scratch = _export(repo, tmp_path)
    assert sides["change_tree_dirty"] and not sides["benchmark_identical"]
    assert (scratch / "change" / "perfbench" / "run.py").read_text() == "print('v2')\n"
