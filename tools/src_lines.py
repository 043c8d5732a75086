"""Count the lines of each module under src/: code, docstring, comment, blank.

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the src/ directory next to this script's parent. A line
that holds any code token counts as code, even with a trailing comment. A
line inside a module, class or function docstring counts as docstring; a
line holding only a comment counts as comment; the rest are blank. The
columns of a module add up to its `wc -l`. Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The code, docstring, comment and blank line counts of one module."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    comments: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            rows = range(tok.start[0], tok.end[0] + 1)
            if tok.type == tokenize.COMMENT:
                comments.update(rows)
            elif tok.type not in _LAYOUT:
                code.update(rows)
    code -= docs
    comments -= code | docs
    total = len(text.splitlines())
    return {
        "code": len(code),
        "docstring": len(docs),
        "comment": len(comments),
        "blank": total - len(code) - len(docs) - len(comments),
        "total": total,
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(p.relative_to(root)), count(p)) for p in sorted(root.rglob("*.py"))]
    keys = ["code", "docstring", "comment", "blank", "total"]
    totals = {k: sum(r[k] for _, r in rows) for k in keys}
    width = max(len(name) for name, _ in rows + [("total", totals)])
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in keys))
    for name, r in rows + [("total", totals)]:
        print(f"{name:<{width}}" + "".join(f"{r[k]:>11}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
