"""Hypothesis settings for the suite: the same examples on every run, no deadline.

A derandomized profile draws its examples from a fixed seed, so a test run is
reproducible; without a deadline a slow host cannot turn a passing example into
a timing failure.  No example database is written.
"""

from hypothesis import settings

settings.register_profile("rmtorus", derandomize=True, deadline=None, database=None)
settings.load_profile("rmtorus")
