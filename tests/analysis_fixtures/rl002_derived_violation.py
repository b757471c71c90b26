"""RL002 true positives: field-derived snapshot reads off the stats lock.

Parsed by the analyzer tests, never imported or executed.  A snapshot()
built from the dataclass fields names no counter, so the rule must treat
every generic read of ``self`` as a counter read.
"""

from copy import copy
from dataclasses import asdict, fields


class ServiceStats:
    def snapshot(self):
        return {f.name: copy(getattr(self, f.name)) for f in fields(self)}  # torn


# One redefinition per snapshot shape: RL002 keys on the class name.
class ServiceStats:
    def snapshot(self):
        return dict(vars(self))  # torn: every field read off the lock


class ServiceStats:
    def snapshot(self):
        return asdict(self)  # torn


class ServiceStats:
    def snapshot(self):
        return dict(self.__dict__)  # torn
