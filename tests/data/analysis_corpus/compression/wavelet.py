"""Kernel-check call-graph policy: a kernel's helper closure follows bare
calls only, and a bare name resolves to its first definition in load
order (here compression/decimation.py's ``_lift``)."""


def _lift(a):
    return a * 0.5


def fwt3d(a, sanitizer):
    """Returns the lifted block; the sanitizer call is not kernel arithmetic."""
    sanitizer.check_block(a)
    return _lift(a)
