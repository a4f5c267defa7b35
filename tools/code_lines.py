"""Count the code lines of each Python module in a directory.

Usage: python3 tools/code_lines.py [DIR]     (DIR defaults to src/spinsim)

A code line is a line that holds a code token: ``tokenize`` gives the
tokens, and comments, blank lines and docstrings (module, class and function
docstrings, found with ``ast``) hold none.  A token spanning several lines,
such as a multi-line string that is not a docstring, makes each of them a
code line.  Prints one line per module, sorted by name, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        source = f.read()
    docs = docstring_lines(ast.parse(source, str(path)))
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/spinsim")
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:20} {n:6}")
    print(f"{'total':20} {sum(counts.values()):6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
