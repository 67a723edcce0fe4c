"""Shared test set-up: the hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized run: every run draws the
same examples, so a property or fuzz test cannot pass or fail by luck.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
