"""Lines and code lines of each module of `src/icecache`, and their totals.

    python3 benchmarks/size.py [--src DIR]

Run from the repository root; `--src` names another checkout's package
directory (default: this checkout's `src/icecache`). A code line is a line
holding a token other than a comment, outside docstrings: blank lines,
comment lines and docstring lines are not code, and a statement split over
several lines counts each line that holds one of its tokens. Modules are
listed largest first.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(row for row in range(tok.start[0], tok.end[0] + 1) if row not in docs)
    return len(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "icecache")
    args = parser.parse_args()
    rows = []
    for path in sorted(args.src.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), code_lines(source)))
    rows.sort(key=lambda row: (-row[2], row[0]))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>5}  {'code':>5}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>5}  {code:>5}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>5}  {sum(r[2] for r in rows):>5}")


if __name__ == "__main__":
    main()
