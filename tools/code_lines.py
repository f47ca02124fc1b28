"""Count the physical and code lines of each file in src/viscofix of two checkouts.

    python3 tools/code_lines.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts. For each Python file in
either checkout's src/viscofix, and for their total, the script prints the
physical lines and the code lines of both and the change between them.
Code lines leave out blank lines, comment lines and docstrings (the string
that opens a module, class or function body, as ast finds it): a line
counts when tokenize finds a token on it outside a docstring that is not a
comment. A statement that spans lines counts each of its lines.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "viscofix"
#: Tokens that carry no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                code.add(line)
    return len(source.splitlines()), len(code)


def _counts(checkout: Path) -> dict[str, tuple[int, int]]:
    return {path.name: count(path.read_text()) for path in sorted((checkout / PACKAGE).glob("*.py"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    before, after = _counts(args.parent), _counts(args.change)
    if not before or not after:
        print(f"no Python files under {PACKAGE} in one of the checkouts", file=sys.stderr)
        return 2
    rows = [(name, before.get(name, (0, 0)), after.get(name, (0, 0))) for name in sorted(before.keys() | after.keys())]
    rows.append(("total", *(tuple(map(sum, zip(*(row[k] for row in rows)))) for k in (1, 2))))
    print(f"{'file':<16} {'physical':>22} {'code':>22}")
    for name, (phys_a, code_a), (phys_b, code_b) in rows:
        physical = f"{phys_a:>6} -> {phys_b:>6} {phys_b - phys_a:>+6}"
        print(f"{name:<16} {physical} {code_a:>6} -> {code_b:>6} {code_b - code_a:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
