"""The comparison tools take git revisions where they take a checkout root."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="needs git and the repository's history"
)


def _code_lines(tmp_path, *names):
    """code_lines.py run on names, with its temporary directories made under tmp_path."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), *names],
        capture_output=True, text=True, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
    )


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


def test_a_name_that_is_neither_a_directory_nor_a_revision_is_refused(tmp_path):
    refused = _code_lines(tmp_path, "no-such-revision", "HEAD")
    assert refused.returncode == 2
    assert "no-such-revision is neither a directory nor a git revision" in refused.stderr
    assert list(tmp_path.iterdir()) == []
