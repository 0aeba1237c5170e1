"""Cache-line coherence states.

The Base machine runs the Illinois protocol — a MESI protocol with
cache-to-cache supply of clean and dirty lines.  The selective-update
optimization of section 5.2 runs the Firefly protocol on a small set of
pages; Firefly lines never become MODIFIED-exclusive while shared — a write
to a shared line broadcasts the new data instead of invalidating, so the
states below suffice for both protocols.
"""

from __future__ import annotations

import enum


class LineState(enum.IntEnum):
    """MESI state of one L2 line."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


# The members as module globals, for the per-access paths: on Python 3.11+
# every class-attribute load off an enum takes EnumType.__getattr__'s slow
# path, so hot code imports these instead of spelling ``LineState.X``.
INVALID = LineState.INVALID
SHARED = LineState.SHARED
EXCLUSIVE = LineState.EXCLUSIVE
MODIFIED = LineState.MODIFIED

#: States in which the owning cache may write without a bus transaction.
OWNED_STATES = (EXCLUSIVE, MODIFIED)


def is_owned(state: LineState) -> bool:
    """True when a cache holding the line in *state* may write silently."""
    return state in OWNED_STATES
