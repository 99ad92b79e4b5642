"""Line counts of the package source: all lines, and code lines.

Run from the root of a checkout, or name another checkout's root::

    python3 tests/src_lines.py [ROOT]

It prints one row per module of ``src/losscomp`` and a total row, each with two
counts.  Lines are the newlines of the file.  Code lines are the lines that a
token spans, found with ``tokenize``, leaving out comments, blank lines and
docstrings: the string that opens a module, class or function body.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(tree):
    """Start ``(line, column)`` of each docstring in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.lineno, first.col_offset


def counts(text):
    """``(lines, code lines)`` of one module's source."""
    docstrings = set(docstring_starts(ast.parse(text)))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code)


def main(root):
    total = [0, 0]
    for path in sorted((Path(root) / "src").rglob("*.py")):
        lines, code = counts(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.stem:16} {lines:6} {code:6}")
    print(f"{'total':16} {total[0]:6} {total[1]:6}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
