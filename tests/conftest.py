"""Shared test setup: subprocesses find the package under test.

pyproject's `pythonpath` setting puts src/ on the import path of the
test process; the tests that start `python -m sympref.cli` need it in
PYTHONPATH too, so that a fresh checkout runs without an install.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def src_on_pythonpath():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
