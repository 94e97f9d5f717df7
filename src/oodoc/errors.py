"""Exception hierarchy shared by all oodoc modules.

Every error pickles, so that one raised in a worker process can be raised
again in the process that started it: a class whose __init__ takes other
arguments than its message gives them back from __reduce__.
"""

from __future__ import annotations


class OodocError(Exception):
    """Base class for every error raised by this package."""


class InputError(OodocError):
    """Bad user-supplied input: missing paths, malformed names, bad flags."""


class ParseFailure(OodocError):
    """A source file could not be parsed.

    Carries the file path and the 1-based line where parsing gave up so a
    batch run can report the file and move on.
    """

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.line, self.message)


class ModelError(OodocError):
    """The parsed declarations cannot form a consistent project model."""


class SchemaError(OodocError):
    """An XML document does not follow the exchange vocabulary."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message

    def __reduce__(self):
        return type(self), (self.location, self.message)


class ConsistencyError(OodocError):
    """An XML count attribute disagrees with the children it describes."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message

    def __reduce__(self):
        return type(self), (self.location, self.message)


class DotParseError(OodocError):
    """DOT text rejected by the built-in validator."""
