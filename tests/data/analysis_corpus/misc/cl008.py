"""CL008: literal ring-buffer depths."""

from repro.core.ringbuffer import RING_DEPTH, SliceRing


def bad(shape):
    """Returns a ring six slices deep, spelt as a literal."""
    return SliceRing(shape, 6)


def clean(shape):
    """Returns a ring RING_DEPTH slices deep."""
    return SliceRing(shape, RING_DEPTH)
