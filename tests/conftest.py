"""Hypothesis profiles for the property tests.

Local runs keep Hypothesis's default profile.  CI selects the `ci` profile
with HYPOTHESIS_PROFILE=ci: derandomised, so that a failure repeats on
every run of the same code, and with five times the default examples.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ci", max_examples=500, derandomize=True, database=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
