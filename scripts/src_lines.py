"""Count the code, docstring, comment and blank lines of each module under src/.

    python3 scripts/src_lines.py [ROOT]

ROOT is a checkout (default: the one holding this script). Every physical
line falls in one class, read from the standard library's ``tokenize``:

* docstring: a line of a string that is a statement of its own (a module,
  class or function docstring, or a bare string between statements),
  blank lines inside it included;
* comment: a line whose only token is a comment;
* blank: a line with no token, outside a docstring;
* code: every other line.

Prints one row per module, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_CLASSES = ("code", "docstring", "comment", "blank")
# tokens that carry no code of their own
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def classify(path: Path) -> dict:
    """Lines of ``path`` per class: code, docstring, comment, blank."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _LAYOUT
                  or t.type == tokenize.NEWLINE]
    n_lines = len(path.read_text(encoding="utf-8").splitlines())
    kind = {}
    statement_start = True
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            statement_start = True
            continue
        follows = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
        if tok.type == tokenize.STRING and statement_start and follows == tokenize.NEWLINE:
            for line in range(tok.start[0], tok.end[0] + 1):
                kind[line] = "docstring"
        elif tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
            continue  # a comment line does not end the wait for a statement
        else:
            for line in range(tok.start[0], tok.end[0] + 1):
                kind[line] = "code"
        statement_start = False
    counts = dict.fromkeys(_CLASSES, 0)
    for line in range(1, n_lines + 1):
        counts[kind.get(line, "blank")] += 1
    return counts


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    paths = sorted((root / "src").rglob("*.py"))
    rows = [(str(path.relative_to(root / "src")), classify(path)) for path in paths]
    total = {key: sum(counts[key] for _, counts in rows) for key in _CLASSES}
    width = max(len(name) for name, _ in rows) + 2
    print(f"{'module':<{width}}" + "".join(f"{key:>10}" for key in _CLASSES) + f"{'total':>10}")
    for name, counts in rows + [("total", total)]:
        print(f"{name:<{width}}" + "".join(f"{counts[key]:>10}" for key in _CLASSES)
              + f"{sum(counts.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
