"""Retired numpy switch, kept only as the names e2ebench's provenance reads.

The crash kernels are plain Python over ``LineStream.covered_at``
(DESIGN.md §15); nothing in the library imports numpy.  This stub goes
with e2ebench's switch table (ROADMAP item 3).
"""

#: No numpy kernels exist.
ENABLED = False


def numpy():
    """Always None: the library does not use numpy."""
    return None
