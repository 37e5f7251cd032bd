"""Test-wide Hypothesis settings, and warnings as errors.

Every `@given` test draws the same examples on every run (`derandomize`)
and keeps no example database.  Hypothesis still caches the constants it
reads from the source; that cache goes to a temporary directory removed at
exit, so a test run leaves no `.hypothesis/` directory behind.

Every test runs with warnings turned into errors, so a new overflow or
invalid-value `RuntimeWarning` fails the suite instead of scrolling past.
"""

import os
import tempfile

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)


def pytest_collection_modifyitems(items):
    # prepended, so it is applied first and a test's own marks override it
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error"), append=False)
