"""Count the code lines of each ``src/lexpalo`` module.

    python tools/loc.py              # each module's code lines, and the total
    python tools/loc.py --base REV   # and each one's change since REV

A code line holds a token that is not a comment, and is no line of a
docstring: blank lines, comment lines and docstrings do not count, and a
string that is not a docstring counts every line it spans. The modules of
``REV`` are read with ``git show``.
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


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in TRIVIA:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout


def counts(base: str | None = None) -> dict[str, int]:
    """Module name -> code lines, in this tree or, with ``base``, at that revision."""
    if base is None:
        sources = {p.stem: p.read_text(encoding="utf-8")
                   for p in sorted((REPO / PACKAGE).glob("*.py"))}
    else:
        names = _git("ls-tree", "--name-only", f"{base}:{PACKAGE}").split()
        sources = {Path(n).stem: _git("show", f"{base}:{PACKAGE}/{n}")
                   for n in names if n.endswith(".py")}
    return {name: code_lines(source) for name, source in sources.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="a git revision to compare against")
    base = parser.parse_args(argv).base
    now = counts()
    before = counts(base) if base else {}
    rows = sorted(now.items(), key=lambda item: (-item[1], item[0]))
    rows += [(name, 0) for name in sorted(set(before) - set(now))]
    rows.append(("total", sum(now.values())))
    before["total"] = sum(before.values())
    for name, lines in rows:
        delta = f"  {lines - before.get(name, 0):+d}" if base else ""
        print(f"{name:<12} {lines:>5}{delta}")


if __name__ == "__main__":
    main()
