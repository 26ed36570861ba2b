"""Hypothesis profiles for the property tests.

The default profile derandomizes them: each run draws the same examples, so
the suite gives the same result every time. ``--hypothesis-profile=random``
draws fresh examples instead; a failure then prints its falsifying example and
the blob that replays it.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False, print_blob=True)
settings.load_profile("derandomized")
