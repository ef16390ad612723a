"""Helpers the repro.analysis fixture tests import by name.

They live here, not in ``conftest.py``: every test directory's conftest
is the module ``conftest``, so ``from conftest import ...`` binds to
whichever one loaded first, and a run that collects another directory
before this one fails to import.
"""


def rules_of(result):
    """The sorted rule names that fired."""
    return sorted({f.rule for f in result.findings})
