"""Fixtures shared by the test modules."""

import os

import pytest

import mkfilter


@pytest.fixture
def src_env():
    """Environment for a Python subprocess that must import the mkfilter
    under test: pytest's ``pythonpath`` setting reaches only its own
    process, not the processes it starts."""
    src = os.path.dirname(os.path.dirname(mkfilter.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
