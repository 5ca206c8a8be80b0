"""Count the lines of ``src/defectseq/*.py`` that hold code.

Usage:

    python3 tools/code_lines.py [--tree BASE]

A line holds code when some token on it is neither a comment nor a
docstring (the string that opens a module, class or function body), so
blank lines, comment lines and docstring lines are left out; a line
inside a multi-line string that is not a docstring counts.  The count
is printed per module and in total for the tree holding this script.
With ``--tree BASE`` the counts of BASE are printed next to it, with
the difference (this tree - BASE) per module and in total:

    python3 tools/code_lines.py --tree ../parent

The script only reads and reports; its exit status is 0 whatever the
counts are.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_starts(tree):
    # (line, column) of every docstring token in ``tree``.
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    """Number of lines of ``source`` that hold a code token."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_tree(tree):
    """{module file name: code lines} for DIR/src/defectseq/*.py."""
    package = Path(tree) / "src" / "defectseq"
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", help="base tree to compare against")
    args = parser.parse_args(argv)
    head = count_tree(Path(__file__).resolve().parents[1])
    if args.tree is None:
        for name, count in head.items():
            print(f"{name:<16}{count:>6}")
        print(f"{'total':<16}{sum(head.values()):>6}")
        return 0
    base = count_tree(args.tree)
    print(f"{'module':<16}{'base':>6}{'head':>6}{'diff':>7}")
    for name in sorted(set(base) | set(head)):
        b, h = base.get(name, 0), head.get(name, 0)
        print(f"{name:<16}{b:>6}{h:>6}{h - b:>+7}")
    b, h = sum(base.values()), sum(head.values())
    print(f"{'total':<16}{b:>6}{h:>6}{h - b:>+7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
