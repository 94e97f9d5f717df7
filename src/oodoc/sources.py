"""Source file discovery and line-of-code counting.

A line counts toward LoC when it holds a token: it is neither blank nor
made only of comment text, and string literals holding comment markers stay
code. The lexer in parsing decides this, so LoC needs no second scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .parsing import count_token_lines, tokenize

DEFAULT_EXTENSION = ".java"


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceFile":
        return cls(path=path, text=text)

    @classmethod
    def read(cls, path: str | Path) -> "SourceFile":
        p = Path(path)
        try:
            raw = p.read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read source file {p}: {exc}") from exc
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"source file {p} is not valid UTF-8: {exc}") from exc
        return cls.from_text(p.as_posix(), text)


def count_loc(file: SourceFile) -> int:
    """LoC of one file: the lines that hold a token, so blank lines and lines
    of comment text alone do not count.

    Raises ParseFailure when the text does not lex, as parsing does.
    """
    return count_token_lines(tokenize(file.text, file.path))


def scan_directory(root: str | Path, extension: str = DEFAULT_EXTENSION) -> list[SourceFile]:
    """Collect all sources under root, recursively, in lexicographic path order."""
    root_path = Path(root)
    if not root_path.is_dir():
        raise InputError(f"not a readable directory: {root_path}")
    try:
        candidates = [p for p in root_path.rglob("*") if p.is_file() and p.name.endswith(extension)]
    except OSError as exc:
        raise InputError(f"cannot scan directory {root_path}: {exc}") from exc
    candidates.sort(key=lambda p: p.as_posix())
    return [SourceFile.read(p) for p in candidates]
