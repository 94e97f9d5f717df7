from __future__ import annotations

import pickle

from oodoc import cli
from oodoc.errors import (
    ConsistencyError,
    DotParseError,
    InputError,
    ModelError,
    OodocError,
    ParseFailure,
    SchemaError,
)

# one instance of each error class; an error raised in evaluate's worker
# process crosses back to the main process pickled
INSTANCES = [
    OodocError("something went wrong"),
    InputError("no source files with extension '.java' under in"),
    ParseFailure("pkg/A.java", 12, "expected ';', found '}'"),
    ModelError("duplicate class p.A"),
    SchemaError("Project/Stuff", "expected element Packages, found Stuff"),
    ConsistencyError("Project/Packages/Package[1]/Classes/Class[2]/Methods/Method[1]",
                     "NumberOfParameters is 2, but there are 1 Parameter elements"),
    DotParseError("line 3: expected ';'"),
    cli._OutputError("cannot write out/model.xml: Is a directory"),
]


def _subclasses(cls: type) -> set[type]:
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _subclasses(sub)
    return found


def test_every_error_class_has_an_instance_here():
    assert {type(e) for e in INSTANCES} == _subclasses(OodocError)


def test_every_error_survives_a_pickle_round_trip():
    for error in INSTANCES:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)
        for field in ("path", "line", "location", "message"):
            assert getattr(copy, field, None) == getattr(error, field, None), field

