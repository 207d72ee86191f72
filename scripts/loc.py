#!/usr/bin/env python
"""Size of ``src/repro``: total lines, code-only lines, public names.

Simplification is reported the way speed is — as numbers from one tool
(``make loc``) — so a PR's CHANGES.md line can carry before/after:

* **total**: every line of every ``.py`` file under ``src/repro``;
* **code-only**: lines that hold at least one token other than a comment,
  and that are not part of a docstring (blank lines, comment-only lines and
  docstrings excluded; found with ``tokenize`` and ``ast``, stdlib only);
* **names**: ``len(repro.experiments.__all__)``, the experiment package's
  public surface.

One subtotal row per top-level package (``repro/transport/``,
``repro/experiments/``, …; modules directly under ``repro`` count as
``repro/*.py``) comes before the grand total, so a PR can cite a package's
size from the tool.  ``python scripts/loc.py FILE...`` adds per-file rows
for paths ending in one of the given suffixes (e.g. ``parallel.py sweeps.py``).
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Dict, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
PACKAGE_ROOT = os.path.join(SRC_ROOT, "repro")

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, _DOCSTRING_OWNERS)
            and ast.get_docstring(node, clean=False) is not None
        ):
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> Tuple[int, int]:
    """``(total lines, code-only lines)`` of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def package_files() -> List[str]:
    found = []
    for directory, _, names in os.walk(PACKAGE_ROOT):
        found.extend(
            os.path.join(directory, name) for name in names if name.endswith(".py")
        )
    return sorted(found)


def main(argv: List[str]) -> int:
    rows = []
    for path in package_files():
        with open(path, encoding="utf-8") as handle:
            rows.append((os.path.relpath(path, SRC_ROOT), *count(handle.read())))
    for name, total, code in rows:
        if argv and name.endswith(tuple(argv)):
            print(f"{name:44s} {total:6d} total {code:6d} code-only")
    packages: Dict[str, List[int]] = {}
    for name, total, code in rows:
        parts = name.split(os.sep)
        package = f"repro/{parts[1]}/" if len(parts) > 2 else "repro/*.py"
        subtotal = packages.setdefault(package, [0, 0, 0])
        subtotal[0] += 1
        subtotal[1] += total
        subtotal[2] += code
    for package, (files, total, code) in sorted(packages.items()):
        print(f"{package:44s} {total:6d} total {code:6d} code-only  ({files} files)")
    sys.path.insert(0, SRC_ROOT)
    import repro.experiments

    print(
        f"src/repro: {len(rows)} files, {sum(r[1] for r in rows)} total lines, "
        f"{sum(r[2] for r in rows)} code-only lines, "
        f"{len(repro.experiments.__all__)} names in repro.experiments.__all__"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
