"""Test suite package.

Being a package (rather than a loose directory) gives the test modules a
unique import namespace: they import shared helpers and each other's
constants as ``tests.helpers`` or ``tests.test_compiled_pipeline``, and
``tests/conftest.py`` cannot collide with another conftest module on the
top-level name ``conftest``.
"""
