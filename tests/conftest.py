"""Every ``hypothesis`` test draws the same examples on every run, so a failure replays.

Examples come from a fixed derandomized seed, and no example database is
read or written.  Tests keep their own ``@settings`` example counts.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
