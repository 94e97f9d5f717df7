from __future__ import annotations

from pathlib import Path

import pytest

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


@pytest.fixture(scope="session")
def fixture_files():
    return scan_directory(FIXTURE_DIR)


@pytest.fixture(scope="session")
def fixture_project():
    """The resolved drawing-shapes project; treat as read-only."""
    return load_fixture_project()
