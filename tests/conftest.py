"""Test-session settings shared by every test module.

With ``CI`` set in the environment, hypothesis runs the ``ci`` profile: the
examples are derived from each test's name instead of drawn at random, so a
rerun meets the same cases, and a failure prints the blob that reproduces it.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
