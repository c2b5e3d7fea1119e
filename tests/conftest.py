"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so one commit cannot pass on one run and fail on the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
