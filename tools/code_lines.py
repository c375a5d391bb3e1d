"""Code lines per Python file: lines that hold a token other than a
comment or a docstring.

    python3 tools/code_lines.py src/lexsel/selectors.py tests/test_selectors.py

Blank lines, comment lines and docstrings do not count.  A docstring is
a string statement that opens a module, class or function body.  The
script prints one line per file, ``lines path``, then ``total`` when it
is given more than one file.
"""

from __future__ import annotations

import io
import sys
import tokenize

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    # The previous statement's first significant token: a string right
    # after a block opens (or at the top of the module) is a docstring.
    opens_body = True
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.INDENT, tokenize.DEDENT):
            continue
        if tok.type == tokenize.NEWLINE:
            if statement:
                first = statement[0]
                docstring = opens_body and len(statement) == 1 and first.type == tokenize.STRING
                if not docstring:
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                last = statement[-1]
                opens_body = last.type == tokenize.OP and last.string == ":"
            statement = []
            continue
        if tok.type in _SKIPPED:
            continue
        statement.append(tok)
    return len(lines)


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n} {path}")
    if len(paths) > 1:
        print(f"{total} total")


if __name__ == "__main__":
    main(sys.argv[1:])
