"""Hypothesis settings for the whole suite: a derandomized profile, so that
every run of the tier-1 command draws the same examples, with no deadline,
because exact arithmetic has no fixed cost per example and a slow host must
not turn into a failure."""

from hypothesis import settings

settings.register_profile("jpencil", derandomize=True, deadline=None, database=None)
settings.load_profile("jpencil")
