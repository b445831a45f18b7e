"""RS003: blocking calls while a lock is held."""

import threading
import time


class Cache:
    """Entries on disk."""

    def get(self, key):
        """Returns the entry stored under key."""
        with open(key) as fh:
            return fh.read()


class Pump:
    """Moves items from a queue into a list guarded by a lock."""

    def __init__(self, q, cache):
        self._lock = threading.Lock()
        self.q = q
        self.cache = cache
        self.items = []
        self._jobs = {}

    def _settle(self):
        """Waits for the producer to settle."""
        time.sleep(0.01)

    def bad(self):
        """Waits on the queue and on a sleeping helper with the lock held."""
        with self._lock:
            self.items.append(self.q.get())
            self._settle()

    def clean(self):
        """Waits on the queue first, then takes the lock to store."""
        item = self.q.get()
        self._settle()
        with self._lock:
            self.items.append(item)

    def bad_cached(self, key):
        """Reads the disk cache with the lock held."""
        with self._lock:
            return self.cache.get(key)

    def clean_jobs(self, key):
        """Looks a job up in a dict with the lock held."""
        with self._lock:
            return self._jobs.get(key)
