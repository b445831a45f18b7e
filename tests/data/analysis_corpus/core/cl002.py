"""CL002: hard-coded ghost widths in stencil slices."""

from repro.core.block import GHOSTS


def bad(padded):
    """Returns the interior view of a padded block."""
    return padded[3:-3]


def clean(padded):
    """Returns the interior view of a padded block."""
    return padded[GHOSTS:-GHOSTS]
