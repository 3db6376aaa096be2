import sys

import pytest

import distillery.cli  # noqa: F401  (imports every distillery module these tests use)


def _distillery_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name.split(".")[0] == "distillery"}


# The modules these tests were written against.  The benchmark's tests
# import distillery afresh, which puts new module objects into sys.modules;
# a class of an earlier import then no longer pickles, and a monkeypatch on
# one module would miss the code that runs.
IMPORTED = _distillery_modules()


@pytest.fixture(autouse=True)
def imported_distillery_modules():
    """Put back the distillery modules imported here before each test."""
    for name in _distillery_modules().keys() - IMPORTED.keys():
        del sys.modules[name]
    sys.modules.update(IMPORTED)
