from __future__ import annotations

from pathlib import Path

import pytest

from oodoc.documents import DOCUMENT_KINDS, PER_CLASS_KINDS, iter_documents
from oodoc.model import build_model, resolve_references
from oodoc.parsing import parse_files
from oodoc.sources import scan_directory

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "drawing_shapes"
PROJECT_NAME = "Drawing shapes software"
CORE_ELEMENTS = "Drawing.Shapes.coreElements"
CORE_FRAME = "Drawing.Shapes.coreFrame"


def load_fixture_project():
    files = scan_directory(FIXTURE_DIR)
    trees, failures = parse_files(files)
    assert not failures, failures
    project = build_model(trees, PROJECT_NAME)
    return resolve_references(project)


def all_documents(project, kinds=DOCUMENT_KINDS) -> dict[str, object]:
    """iter_documents' documents held at once: a DocumentGraph for each
    project-level kind, a list of (class, DocumentGraph) for each per-class kind."""
    return {
        kind: list(document) if kind in PER_CLASS_KINDS else document
        for kind, document in iter_documents(project, kinds)
    }


@pytest.fixture(scope="session")
def fixture_files():
    return scan_directory(FIXTURE_DIR)


@pytest.fixture(scope="session")
def fixture_project():
    """The resolved drawing-shapes project; treat as read-only."""
    return load_fixture_project()
