"""Checkout roots for the tools that compare two trees of viscofix.

Where a tool takes the root of a checkout, it also takes a git revision of
the repository this file sits in, such as HEAD~1 or a commit hash.
checkouts() gives a directory as it is; it unpacks a revision with
git archive into a temporary directory, which is removed when the with
block ends. HEAD names the last commit; the working tree is the directory
itself, such as ".".
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

#: The repository whose revisions are unpacked: the one this file sits in.
REPO = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def checkouts(*names: str):
    """The resolved root of each checkout that names gives, a directory or a git revision, in order.

    A name that is neither is reported on stderr, and the tool exits with 2.
    """
    with contextlib.ExitStack() as stack:
        yield [_root(name, stack) for name in names]


def _root(name: str, stack: contextlib.ExitStack) -> Path:
    if Path(name).is_dir():
        return Path(name).resolve()
    try:
        tar = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", f"{name}^{{commit}}"],
            capture_output=True, check=True, stdin=subprocess.DEVNULL,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.decode(errors="replace").strip() if isinstance(exc, subprocess.CalledProcessError) else exc
        print(f"{name} is neither a directory nor a git revision of {REPO}: {detail}", file=sys.stderr)
        raise SystemExit(2) from exc
    root = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="viscofix-checkout-")))
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # The data filter refuses links and paths that leave the directory.
        archive.extractall(root, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return root
