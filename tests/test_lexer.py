"""The lexer against the reference lexer of oodoc 0.1.0, on the fixture and
on seeded mutants of it.

Two divergences are allowed, both 0.1.0 faults kept in
oracles.reference_tokenize. A backslash before a newline continued a
literal; such a literal is now "unterminated literal" at its own line. And
only LF ended a line, where a lone CR was a blank and part of a literal; CR
and CR LF now end a line too (JLS 3.4), so a text with CRs lexes as the
reference lexes it with LF line ends.
"""

from __future__ import annotations

import random
import re
import string

import pytest

from oodoc.errors import ParseFailure
from oodoc.parsing import _IDENT_TAIL_RE, _TOKEN_RE, count_token_lines, tokenize

from oracles import loc_oracle, reference_tokenize

MUTANTS = 1200
SEED = 20160128

# Lexemes the fixture lacks, characters on either side of the ASCII-only
# fast path (non-ASCII digits, letters, numerics and spaces), and the
# pieces of comments and literals whose boundaries matter.
INSERTIONS = (
    '"', "'", "\\", "\\\n", "\n", "/", "*", "/*", "*/", "//", "/**/", ".", "...",
    "->", "1.5f", "2L", "0", "$", "_", "#", "`", "\t", "\r\n", "\r", "\x00",
    "²", "٣", "7²", "3٣.5", "1.²f", "½", "Ⅻ", "一", "é", "ǅ", "ʰ",
    " ", " ", "　", " ", "\x85", "\x0b", "\x0c", "\x1c",
    '"a\\"b"', "'\\''", '"/*"', '"//"', '"a\\\nb"', "'\\\n'", '"a\rb"',
)


def lex(text: str):
    """(kind, text, line) triples, or the failure's (line, message)."""
    try:
        return [(t.kind, t.text, t.line) for t in tokenize(text, "M.java")]
    except ParseFailure as exc:
        return (exc.line, exc.message)


def lf_only(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def reference_lex(text: str):
    try:
        return reference_tokenize(text, "M.java")
    except ParseFailure as exc:
        return (exc.line, exc.message)


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.6:
            piece = rng.choice(INSERTIONS) if rng.random() < 0.6 else rng.choice(string.printable)
            text = text[:at] + piece + text[at:]
        elif op < 0.8:
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            span = text[at:at + rng.randint(1, 20)]
            to = rng.randrange(len(text) + 1)
            text = text[:to] + span + text[to:]
    return text


def loc_oracle_applies(text: str, tokens) -> bool:
    r"""Whether loc_oracle's simplifications hold for text.

    loc_oracle splits lines at every str.splitlines boundary (also "\x0b",
    "\x85", "\u2028", ...), where oodoc counts LF, CR and CR LF only; it
    does not know literals, so a "/*" or "//" inside one starts a comment for
    it; and it strips block comments first, so a "/*" after "//" on a line
    starts one for it.
    """
    lines = lf_only(text)
    return (
        text.splitlines() == lines.removesuffix("\n").split("\n")
        and not re.search(r"/(?=/)[^\n]*?/\*", lines)
        and not any("/*" in t.text or "//" in t.text
                    for t in tokens if t.kind in ("string", "char"))
    )


def assert_backslash_newline_divergence(text: str, new, old):
    """new and old differ: only the fixed backslash-newline fault may explain it."""
    assert "\\\n" in text
    assert isinstance(new, tuple) and new[1] == "unterminated literal", new
    line = new[0]
    assert text.split("\n")[line - 1].endswith("\\")
    if isinstance(old, tuple):
        # the old lexer reached the same literal and failed later, on a
        # line it counted one short at least once
        assert old[0] >= line
    else:
        assert any(kind in ("string", "char") and tok_line == line and "\\\n" in tok
                   for kind, tok, tok_line in old), old


def assert_one_kind_per_text(tokens, kinds: dict):
    """The parser tests a token by its text alone: no two kinds share one."""
    for tok in tokens:
        assert kinds.setdefault(tok.text, tok.kind) == tok.kind, (tok.text, kinds[tok.text], tok.kind)


def test_fixture_tokens_match_reference(fixture_files):
    kinds: dict = {}
    for f in fixture_files:
        assert lex(f.text) == reference_lex(f.text), f.path
        assert_one_kind_per_text(tokenize(f.text, f.path), kinds)


def test_mutants_match_reference_and_loc_oracle(fixture_files):
    rng = random.Random(SEED)
    texts = [f.text for f in fixture_files]
    lexed = failed = diverged = cr_diverged = non_ascii = loc_checked = 0
    kinds: dict = {}
    for _ in range(MUTANTS):
        text = mutate(rng.choice(texts), rng)
        non_ascii += not text.isascii()
        new, old = lex(text), reference_lex(text)
        if new != old and "\r" in text:
            cr_diverged += 1
            old = reference_lex(lf_only(text))
        if new != old:
            diverged += 1
            assert_backslash_newline_divergence(lf_only(text), new, old)
        elif isinstance(new, tuple):
            failed += 1
        else:
            lexed += 1
            tokens = tokenize(text, "M.java")
            assert_one_kind_per_text(tokens, kinds)
            if loc_oracle_applies(text, tokens):
                loc_checked += 1
                assert count_token_lines(tokens) == loc_oracle(text), text
    # the mutants reach every outcome, so none of the checks above is idle
    assert lexed >= MUTANTS // 2
    assert loc_checked >= lexed * 3 // 4
    assert failed >= 50
    assert diverged >= 5
    assert cr_diverged >= 5
    assert non_ascii >= 200


@pytest.mark.parametrize("quote", ['"', "'"])
def test_backslash_newline_does_not_continue_a_literal(quote):
    text = f"class A {{\n  String s = {quote}a\\\nb{quote};\n}}\n"
    with pytest.raises(ParseFailure) as exc:
        tokenize(text, "A.java")
    assert (exc.value.path, exc.value.line, exc.value.message) == (
        "A.java", 2, "unterminated literal")


def test_escapes_and_comment_markers_stay_inside_literals():
    tokens = tokenize('s = "a\\"//b" + \'\\\'\'; /* x\n y */ t = "/*";\n', "A.java")
    assert [(t.kind, t.text, t.line) for t in tokens] == [
        ("ident", "s", 1), ("punct", "=", 1), ("string", '"a\\"//b"', 1),
        ("punct", "+", 1), ("char", "'\\''", 1), ("punct", ";", 1),
        ("ident", "t", 2), ("punct", "=", 2), ("string", '"/*"', 2),
        ("punct", ";", 2), ("eof", "", 3),
    ]


def test_non_ascii_digits_follow_isdigit():
    tokens = tokenize("x = 7²٣.5f + ²1;", "A.java")
    assert [(t.kind, t.text) for t in tokens][2:5] == [
        ("number", "7²٣.5f"), ("punct", "+"), ("number", "²1"),
    ]


def test_blanks_at_end_of_text_are_not_a_token():
    for text in ("a", "a \t", "a\x0b\x0c\u00a0", "a  \n \t"):
        assert [(t.kind, t.text) for t in tokenize(text, "A.java")] == [
            ("ident", "a"), ("eof", "")], repr(text)


def test_lexer_patterns_compile_on_python_3_10():
    # possessive quantifiers and atomic groups arrive in Python 3.11's re
    for pattern in (_TOKEN_RE.pattern, _IDENT_TAIL_RE.pattern):
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_cr_and_crlf_end_lines_as_lf_does(fixture_files, ending):
    for f in fixture_files:
        text = f.text.replace(ending, "\n").replace("\n", ending)
        assert lex(text) == lex(f.text), f.path
        loc = count_token_lines(tokenize(text, f.path))
        assert loc == count_token_lines(tokenize(f.text, f.path)), f.path


def test_cr_only_file_counts_every_line():
    assert count_token_lines(tokenize("class A {\r  int a;\r  int b;\r}\r", "A.java")) == 4
    tokens = tokenize("class A {\r  int a;\r\n}", "A.java")
    assert [t.line for t in tokens] == [1, 1, 1, 2, 2, 2, 3, 3]


def test_lone_cr_inside_a_literal_is_unterminated():
    with pytest.raises(ParseFailure) as exc:
        tokenize('class A {\n  String s = "a\rb";\n}\n', "A.java")
    assert (exc.value.line, exc.value.message) == (2, "unterminated literal")
