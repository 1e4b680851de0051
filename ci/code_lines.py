"""Code lines of ``src/netctrl``, per module and in total.

A code line is a physical line that holds a token other than a comment,
outside every docstring: blank lines, comment lines and the lines of a
module, class or function docstring are left out, and each line of a
statement that spans several lines counts.  Docstrings are found with
``ast``, tokens with ``tokenize``.

Run it as ``python ci/code_lines.py [DIR]``; ``DIR`` defaults to this
repository's ``src/netctrl``.  It prints one ``module lines`` row per
file, largest first, and then the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netctrl"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, a Python module's text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count(package: Path = PACKAGE) -> dict:
    """{module stem: code lines} for every ``.py`` file directly in ``package``."""
    return {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    counts = count(Path(args[0]) if args else PACKAGE)
    for name, lines in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {lines}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
