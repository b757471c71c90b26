"""RL004 true positives: registered backends with protocol holes.

Parsed by the analyzer tests, never imported or executed.
"""


class SolverBackend:
    """Stands in for the abstract protocol: contributes nothing."""

    def build_rows(self, payload):
        raise NotImplementedError

    def evolve_rows(self, rows, delta):
        return None


class IncompleteBackend(SolverBackend):
    name = "incomplete"

    def build_rows(self, payload):
        return payload

    def build_context(self, workspace):
        return workspace
    # matching_list and evolve_rows are silently inherited stubs.


_FACTORIES = {
    "incomplete": IncompleteBackend,
}
