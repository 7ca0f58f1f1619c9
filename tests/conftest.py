import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

HERE = Path(__file__).parent
# A file left open, or any other warning raised where nothing can catch it,
# fails the test that leaked it.  Only tests in this directory are marked.
STRICT = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            for mark in STRICT:
                item.add_marker(mark)
