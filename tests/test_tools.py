"""The comparison tools take git revisions for checkout roots, and bench_pairs.py applies the claim rule."""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

needs_git = pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="needs git and the repository's history"
)


def _code_lines(tmp_path, *names):
    """code_lines.py run on names, with its temporary directories made under tmp_path."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), *names],
        capture_output=True, text=True, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
    )


@needs_git
def test_code_lines_unpacks_a_revision_and_removes_it(tmp_path):
    same = _code_lines(tmp_path, "HEAD", "HEAD")
    assert same.returncode == 0, same.stderr
    rows = same.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows][-1] == "total" and "operators.py" in same.stdout
    # Each side of each row is unchanged: the physical and the code change are +0.
    assert all(row.split()[4] == row.split()[-1] == "+0" for row in rows)
    # A revision and a directory mix; the directory is the working tree.
    mixed = _code_lines(tmp_path, "HEAD", str(ROOT))
    assert mixed.returncode == 0, mixed.stderr
    assert list(tmp_path.iterdir()) == []


@needs_git
def test_a_name_that_is_neither_a_directory_nor_a_revision_is_refused(tmp_path):
    refused = _code_lines(tmp_path, "no-such-revision", "HEAD")
    assert refused.returncode == 2
    assert "no-such-revision is neither a directory nor a git revision" in refused.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs")


def test_a_gain_holds_on_nine_wins_in_ten_and_a_gap_past_the_parents_quartiles(bench_pairs):
    parent = [0.220, 0.222, 0.224, 0.226, 0.228, 0.230, 0.221, 0.223, 0.225, 0.227]
    change = [0.200, 0.202, 0.204, 0.206, 0.208, 0.210, 0.201, 0.203, 0.205, 0.240]
    v = bench_pairs.verdict(parent, change, "lower", 0.25)
    assert (v.wins, v.pairs, v.holds, v.worse, v.unresolved) == (9, 10, True, False, False)
    assert v.parent.median == pytest.approx(0.2245) and v.change.median == pytest.approx(0.2045)
    # Eight wins in ten, or nine in nine pairs, are not enough.
    assert not bench_pairs.verdict(parent, change[:-2] + [0.240, 0.240], "lower", 0.25).holds
    assert not bench_pairs.verdict(parent[:9], change[:9], "lower", 0.25).holds
    # A tie wins for neither side.
    assert bench_pairs.verdict(parent, parent[:1] + change[1:], "lower", 0.25).wins == 8
    # For a metric where higher is better, the same runs read the other way round.
    flipped = bench_pairs.verdict(change, parent, "higher", 0.25)
    assert (flipped.wins, flipped.holds) == (9, True)


def test_a_gain_needs_a_median_gap_wider_than_the_parents_quartiles(bench_pairs):
    # Ten wins, by less than the parent's own spread.
    parent = [0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.28, 0.29]
    change = [value - 0.01 for value in parent]
    v = bench_pairs.verdict(parent, change, "lower", 0.25)
    assert v.wins == 10 and v.parent.q3 - v.parent.q1 > 0.01 and not v.holds


def test_a_metric_worse_than_its_bound_is_flagged_and_a_wide_spread_is_unresolved(bench_pairs):
    parent = [40.0] * 10
    assert bench_pairs.verdict(parent, [42.1] * 10, "lower", 0.05).worse
    assert not bench_pairs.verdict(parent, [41.9] * 10, "lower", 0.05).worse
    # completed_frac is better higher: 0.875 -> 0.75 is past a bound of 0.1.
    assert bench_pairs.verdict([0.875] * 10, [0.75] * 10, "higher", 0.1).worse
    assert not bench_pairs.verdict([0.875] * 10, [0.875] * 10, "higher", 0.1).worse
    # The parent's quartiles lie 0.1 apart around 1, past a bound of 0.05,
    # unless every change run reads better than every parent run.
    wide = [0.9, 0.95, 1.0, 1.05, 1.1] * 2
    assert bench_pairs.verdict(wide, wide, "lower", 0.05).unresolved
    assert not bench_pairs.verdict(wide, [0.8] * 10, "lower", 0.05).unresolved


def test_quartiles_are_the_exclusive_ones_op_times_prints(bench_pairs):
    # The inclusive method would give [3.25, 7.75], a narrower spread to beat.
    values = [7.0, 1.0, 4.0, 10.0, 2.0, 9.0, 5.0, 3.0, 8.0, 6.0]
    assert bench_pairs.spread(values) == (2.75, 5.5, 8.25)
    op_times = importlib.import_module("op_times")
    assert op_times._quartiles([value / 1e3 for value in values]) == "[2.750, 8.250]"


def test_seeds_read_a_range_or_one_seed(bench_pairs):
    assert bench_pairs._seeds("5101-5110") == range(5101, 5111)
    assert bench_pairs._seeds("7") == range(7, 8)
    for bad in ("x-3", "9-3", "-3"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs._seeds(bad)


def _stub_checkout(root, records):
    """A checkout whose own tools/same_bits.py prints fixed records, with no solver behind them."""
    (root / "tools").mkdir(parents=True)
    (root / "tools" / "same_bits.py").write_text(f"import json\nprint(json.dumps({records!r}))\n")
    return str(root)


def _same_bits(*names):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_bits.py"), *names],
        capture_output=True, text=True, cwd=ROOT, stdin=subprocess.DEVNULL,
    )


def test_same_bits_records_each_checkout_with_its_own_script_and_names_one_sided_keys(tmp_path, monkeypatch):
    parent = _stub_checkout(tmp_path / "parent", {"kept": 1, "changed": "a", "dropped": 2})
    change = _stub_checkout(tmp_path / "change", {"kept": 1, "changed": "b", "added": 3})
    compared = _same_bits(parent, change)
    assert compared.returncode == 1, compared.stderr
    assert compared.stdout.splitlines() == [
        "differs: changed", "only in parent: dropped", "only in change: added", "3 of 4 records differ",
    ]
    same = _same_bits(parent, parent)
    assert (same.returncode, same.stdout) == (0, "same bits: 3 records agree\n")
    # A checkout whose script fails to record is refused.
    (tmp_path / "parent" / "tools" / "same_bits.py").write_text("raise SystemExit(3)\n")
    assert _same_bits(parent, change).returncode == 2
    # A checkout without the script is recorded by the one that runs.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    same_bits = importlib.import_module("same_bits")
    assert same_bits._recorder(tmp_path) == ROOT / "tools" / "same_bits.py"
    assert same_bits._recorder(tmp_path / "change") == tmp_path / "change" / "tools" / "same_bits.py"
