"""Test-wide settings.

Every ``hypothesis`` test draws the same examples on every run: the
profile below derives them from each test's name and keeps no example
database, so a test's verdict does not depend on the run.  Each test's
``max_examples`` stays its own.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
