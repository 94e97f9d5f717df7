"""Source file discovery: read every source file under a directory."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import InputError

DEFAULT_EXTENSION = ".java"


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str

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
        return cls(p.as_posix(), text)


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
