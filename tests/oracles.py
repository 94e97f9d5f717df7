"""Reference implementations that the tests hold the library against.

They are kept apart from the library on purpose: the lexer and LoC code in
oodoc may change shape, these may not.
"""

from __future__ import annotations

import re

from oodoc.errors import ParseFailure


def loc_oracle(text: str) -> int:
    """Independent line-filtering count: strip block comments (keeping the
    newline structure), drop // tails, count non-blank lines."""
    no_blocks = re.sub(
        r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text, flags=re.S
    )
    count = 0
    for line in no_blocks.splitlines():
        code = line.split("//", 1)[0]
        if code.strip():
            count += 1
    return count


_PUNCT = (
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "->", "...", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&",
    "|", "^", "~", "?", ":", ".", ",", ";", "(", ")", "{", "}", "[", "]",
    "@",
)


def reference_tokenize(text: str, path: str) -> list[tuple[str, str, int]]:
    """The character-by-character lexer oodoc 0.1.0 shipped, as
    (kind, text, line) triples.

    It has one known fault, left in place so that the differential test can
    name it: a backslash before a newline inside a literal continues the
    literal, and that newline is not counted.
    """
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            i += 2
            while True:
                if i + 1 >= n:
                    raise ParseFailure(path, start_line, "unterminated block comment")
                if text[i] == "\n":
                    line += 1
                    i += 1
                    continue
                if text[i] == "*" and text[i + 1] == "/":
                    i += 2
                    break
                i += 1
            continue
        if c == '"' or c == "'":
            quote = c
            start_line = line
            j = i + 1
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if text[j] == "\n":
                    raise ParseFailure(path, start_line, "unterminated literal")
                if text[j] == quote:
                    break
                j += 1
            else:
                raise ParseFailure(path, start_line, "unterminated literal")
            kind = "string" if quote == '"' else "char"
            tokens.append((kind, text[i : j + 1], line))
            i = j + 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "fFdDlL":
                j += 1
            tokens.append(("number", text[i:j], line))
            i = j
            continue
        if c.isalpha() or c == "_" or c == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            tokens.append(("ident", text[i:j], line))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, line))
                i += len(p)
                break
        else:
            raise ParseFailure(path, line, f"unexpected character {c!r}")
    tokens.append(("eof", "", line))
    return tokens
