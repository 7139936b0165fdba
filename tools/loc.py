"""Count the code lines and statements of each ``src/lexpalo`` module.

    python tools/loc.py              # each module's code lines and statements, and the totals
    python tools/loc.py --base REV   # and each count's change since REV

A code line holds a token that is not a comment, and is no line of a
docstring: blank lines, comment lines and docstrings do not count, and a
string that is not a docstring counts every line it spans. A statement is a
logical line, a NEWLINE token, outside docstrings, so a call wrapped over
several lines is one statement, as it is on one line. Each row prints a
module's code lines, then its statements, each followed by its change
since ``REV`` when ``--base`` is given. The modules of ``REV`` are read
with ``git show``.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = "src/lexpalo"
TRIVIA = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _tokens(source: str):
    return tokenize.generate_tokens(io.StringIO(source).readline)


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for token in _tokens(source):
        if token.type not in TRIVIA:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source))


def statements(source: str) -> int:
    """The statements of one module's source: its NEWLINE tokens that end
    no docstring."""
    docstrings = _docstring_lines(source)
    return sum(token.type == tokenize.NEWLINE and token.start[0] not in docstrings
               for token in _tokens(source))


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout


def counts(base: str | None = None) -> dict[str, tuple[int, int]]:
    """Module name -> (code lines, statements), in this tree or, with
    ``base``, at that revision."""
    if base is None:
        sources = {p.stem: p.read_text(encoding="utf-8")
                   for p in sorted((REPO / PACKAGE).glob("*.py"))}
    else:
        names = _git("ls-tree", "--name-only", f"{base}:{PACKAGE}").split()
        sources = {Path(n).stem: _git("show", f"{base}:{PACKAGE}/{n}")
                   for n in names if n.endswith(".py")}
    return {name: (code_lines(source), statements(source))
            for name, source in sources.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="a git revision to compare against")
    base = parser.parse_args(argv).base
    now = counts()
    before = counts(base) if base else {}
    rows = sorted(now.items(), key=lambda item: (-item[1][0], item[0]))
    rows += [(name, (0, 0)) for name in sorted(set(before) - set(now))]
    rows.append(("total", tuple(map(sum, zip(*now.values())))))
    before["total"] = tuple(map(sum, zip(*before.values()))) or (0, 0)
    for name, (lines, stmts) in rows:
        was_lines, was_stmts = before.get(name, (0, 0))
        print(f"{name:<12} {lines:>5}" + (f"  {lines - was_lines:+5d}" if base else "")
              + f" {stmts:>5}" + (f"  {stmts - was_stmts:+5d}" if base else ""))


if __name__ == "__main__":
    main()
