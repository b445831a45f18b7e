"""RS006: durable writes that are not atomic."""

import os


def bad(path, data):
    """Writes the cache entry in place."""
    with open(path, "w") as fh:
        fh.write(data)


def clean(path, data):
    """Writes the cache entry to a tmp file, syncs it and renames it."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
