from __future__ import annotations

import pytest

from oodoc.errors import InputError, ParseFailure
from oodoc.parsing import count_token_lines, parse_file, tokenize
from oodoc.sources import SourceFile, scan_directory

from conftest import FIXTURE_DIR
from oracles import loc_oracle


def loc_of(text: str, path: str = "Test.java") -> int:
    return count_token_lines(tokenize(text, path))


def test_empty_text_counts_zero():
    assert loc_of("") == 0


def test_code_blank_comment_mix_counts_one():
    text = "int a = 1;\n\n// comment\n"
    assert loc_of(text) == 1


def test_block_comment_lines_do_not_count():
    text = "/*\n * licence\n */\nclass A {\n}\n"
    assert loc_of(text) == 2


def test_code_before_and_after_block_comment_counts():
    text = "int a; /* note\nstill comment\n end */ int b;\n"
    assert loc_of(text) == 2


def test_comment_marker_inside_string_is_code():
    text = 'String s = "//not a comment";\nString t = "/*neither*/";\n'
    assert loc_of(text) == 2


def test_fixture_loc_matches_independent_oracle(fixture_files):
    for f in fixture_files:
        assert loc_of(f.text, f.path) == loc_oracle(f.text), f.path
    total = sum(loc_of(f.text, f.path) for f in fixture_files)
    assert total == sum(loc_oracle(f.text) for f in fixture_files)
    # regression pin for the authored corpus
    assert total == 198


def test_count_is_deterministic(fixture_files):
    for f in fixture_files:
        assert loc_of(f.text, f.path) == loc_of(f.text, f.path)


def test_parse_file_records_loc():
    sf = SourceFile("A.java", "class A {\n}\n")
    assert parse_file(sf).loc == 2
    assert parse_file(sf).loc == loc_of(sf.text, sf.path)


def test_loc_of_text_that_does_not_lex_raises():
    with pytest.raises(ParseFailure) as exc:
        loc_of("class A {\n  String s = \"open;\n}\n")
    assert (exc.value.line, exc.value.message) == (2, "unterminated literal")


def test_scan_orders_lexicographically(tmp_path):
    (tmp_path / "b.java").write_text("class B {}", encoding="utf-8")
    (tmp_path / "a.java").write_text("class A {}", encoding="utf-8")
    files = scan_directory(tmp_path)
    assert [f.path.rsplit("/", 1)[-1] for f in files] == ["a.java", "b.java"]


def test_scan_empty_directory(tmp_path):
    assert scan_directory(tmp_path) == []


def test_scan_recurses_and_stays_sorted(tmp_path):
    (tmp_path / "z").mkdir()
    (tmp_path / "a").mkdir()
    (tmp_path / "z" / "one.java").write_text("class One {}", encoding="utf-8")
    (tmp_path / "a" / "two.java").write_text("class Two {}", encoding="utf-8")
    (tmp_path / "top.java").write_text("class Top {}", encoding="utf-8")
    files = scan_directory(tmp_path)
    names = [f.path for f in files]
    expected = sorted(names)
    assert names == expected
    assert [n.rsplit("/", 1)[-1] for n in names] == ["two.java", "top.java", "one.java"]


def test_scan_honors_extension(tmp_path):
    (tmp_path / "x.java").write_text("class X {}", encoding="utf-8")
    (tmp_path / "y.src").write_text("class Y {}", encoding="utf-8")
    assert len(scan_directory(tmp_path)) == 1
    assert len(scan_directory(tmp_path, extension=".src")) == 1


def test_scan_missing_directory_raises():
    with pytest.raises(InputError):
        scan_directory(FIXTURE_DIR / "no-such-dir")


def test_scan_rejects_file_path():
    some_file = next(FIXTURE_DIR.rglob("*.java"))
    with pytest.raises(InputError):
        scan_directory(some_file)


def test_non_utf8_file_raises(tmp_path):
    bad = tmp_path / "bad.java"
    bad.write_bytes(b"class A { \xff\xfe }")
    with pytest.raises(InputError):
        scan_directory(tmp_path)
