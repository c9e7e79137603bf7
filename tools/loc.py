"""Count Python code lines: no blank lines, comments or docstrings.

Usage: ``python tools/loc.py [ROOT ...]`` (default ``src/repro``) prints
each root's total, then the total of every entry directly under it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    doc = {line for node in ast.walk(ast.parse(source))
           if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node) is not None
           for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    code = {line for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type not in _NOT_CODE
            for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - doc)


def main(roots: list[str]) -> None:
    for root in map(Path, roots or ["src/repro"]):
        counts = {p.relative_to(root): code_lines(p) for p in root.rglob("*.py")}
        print(f"{root}\t{sum(counts.values())}")
        for top in sorted({p.parts[0] for p in counts}):
            print(f"  {top}\t{sum(n for p, n in counts.items() if p.parts[0] == top)}")


if __name__ == "__main__":
    main(sys.argv[1:])
