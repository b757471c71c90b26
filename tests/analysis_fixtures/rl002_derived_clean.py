"""RL002 negatives: a field-derived snapshot read under the stats lock.

Parsed by the analyzer tests, never imported or executed.
"""

from copy import copy
from dataclasses import fields


class ServiceStats:
    def snapshot(self):
        with self.lock:
            return {
                f.name: copy(getattr(self, f.name))
                for f in fields(self)
                if f.name != "lock"
            }

    def label(self):
        # Not snapshot(): reading config off the lock is fine elsewhere.
        return getattr(self, "backend")
