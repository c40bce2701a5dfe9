"""Shared test settings.

Property tests run under one hypothesis profile: derandomized (the same
examples on every run), no deadline (timings on a shared machine vary),
few examples, and no example database written to the tree.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=20, database=None)
settings.load_profile("tier1")
