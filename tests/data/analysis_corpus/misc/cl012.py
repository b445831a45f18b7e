"""CL012: bare print() in library code."""

from repro.telemetry.log import get_logger

log = get_logger("corpus")


def bad(step):
    """Reports a step on stdout."""
    print("step", step)


def clean(step):
    """Reports a step through the structured logger."""
    log.info("step", step=step)
