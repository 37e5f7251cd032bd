"""Test-wide Hypothesis settings.

Every `@given` test draws the same examples on every run (`derandomize`)
and keeps no example database.  Hypothesis still caches the constants it
reads from the source; that cache goes to a temporary directory removed at
exit, so a test run leaves no `.hypothesis/` directory behind.
"""

import os
import tempfile

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)
