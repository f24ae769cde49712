"""Hypothesis profiles: a quick default for local runs, and "ci", which the
workflow selects with HYPOTHESIS_PROFILE=ci, running more examples.

Both draw their examples from a fixed seed and keep no example database, so
a failure replays the same way on any machine under the same profile.
Hypothesis still writes a .hypothesis/ directory (constants/, unicode_data/)
in the working directory even with database=None; .gitignore lists it, and
that is what keeps the checkout clean after a run.
"""

import os

from hypothesis import settings

settings.register_profile("quick", max_examples=25, derandomize=True,
                          database=None, deadline=None)
settings.register_profile("ci", max_examples=200, derandomize=True,
                          database=None, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "quick"))
