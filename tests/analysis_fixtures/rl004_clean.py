"""RL004 negatives: bitops routing plus a structurally complete registry.

Parsed by the analyzer tests, never imported or executed.
"""

from repro.core.backends.bitops import exclude, set_bit


def solve(cand_mask, used_mask):
    mask = exclude(cand_mask, used_mask)  # blessed helper, not a raw op
    used_mask = set_bit(used_mask, 3)
    return mask, used_mask


class SolverBackend:
    pass


class BlockBase(SolverBackend):
    def build_rows(self, payload):
        return payload

    def evolve_rows(self, rows, delta):
        return rows

    def build_context(self, workspace):
        return workspace

    def matching_list(self, top_good, context):
        return top_good


class GoodBackend(BlockBase):
    name = "good"


class MappedBackend(BlockBase):
    name = "mapped"

    def open_payload(self, region):
        return region


_FACTORIES = {
    "good": GoodBackend,
    "mapped": MappedBackend,
}
