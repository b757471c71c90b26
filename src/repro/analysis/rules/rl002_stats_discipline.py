"""RL002: ServiceStats counters are only touched under the stats lock.

PR 4 fixed snapshot tearing by bundling every counter update (and the
whole ``snapshot()`` read) under ``ServiceStats.lock``.  This rule keeps
that fix load-bearing: any write to a counter attribute of a stats
object — ``self.stats.calls += n``, ``stats.solved_by[k] = v``, or
``self.calls`` inside ``ServiceStats`` itself — must sit lexically
inside a ``with <stats>.lock:`` block, and ``snapshot()`` must read
every counter lock-held — whether it names them or reads the fields
generically (``getattr(self, name)``, ``vars``, ``asdict``,
``self.__dict__``).

The counter set is ``ServiceStats``' own field list, so a field is
guarded from the moment it is declared.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, ParsedFile, Project, Rule
from repro.analysis.rules.common import (
    LockScopeVisitor,
    base_name,
    call_name,
    dotted_name,
)
from repro.core.service import _COUNTERS

STATS_COUNTERS = frozenset(_COUNTERS)

STATS_CLASS = "ServiceStats"

#: Calls that read fields of their first argument by computed name, or
#: all at once: in ``snapshot()``, ``<reader>(self, ...)`` reads counters.
_FIELD_READERS = frozenset({"getattr", "vars", "asdict"})


def _stats_lock_held(held: list[str]) -> bool:
    """True when some held lock reads like the stats lock (``....lock``)."""
    return any(name == "lock" or name.endswith(".lock") for name in held)


def _counter_target(node: ast.AST, in_stats_class: bool) -> ast.Attribute | None:
    """The counter attribute written by an assignment target, if any.

    Matches ``<x>.stats.<counter>``, ``stats.<counter>``, and — inside
    ``ServiceStats`` methods — ``self.<counter>``; subscript stores like
    ``....solved_by[k]`` resolve to the ``solved_by`` attribute.
    """
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if not isinstance(target, ast.Attribute) or target.attr not in STATS_COUNTERS:
        return None
    owner = dotted_name(target.value)
    if owner is None:
        return None
    if owner == "stats" or owner.endswith(".stats"):
        return target
    if in_stats_class and owner == "self":
        return target
    return None


class _Visitor(LockScopeVisitor):
    def __init__(self, rule: "StatsDisciplineRule", pf: ParsedFile) -> None:
        super().__init__()
        self.rule = rule
        self.pf = pf
        self.findings: list[Finding] = []
        self.class_stack: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    @property
    def _in_stats_class(self) -> bool:
        return bool(self.class_stack) and self.class_stack[-1] == STATS_CLASS

    def _check_write(self, stmt: ast.stmt, targets: list[ast.expr]) -> None:
        if _stats_lock_held(self.held):
            return
        for target in targets:
            attr = _counter_target(target, self._in_stats_class)
            if attr is not None:
                self.findings.append(
                    self.rule.finding(
                        self.pf,
                        stmt,
                        f"write to stats counter '{attr.attr}' outside the stats lock",
                    )
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_write(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node, [node.target])
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._in_stats_class and node.name == "snapshot":
            self._check_snapshot(node)
        self._visit_new_scope(node)

    def _check_snapshot(self, node: ast.FunctionDef) -> None:
        # snapshot() must read every counter under the lock: a read
        # outside tears against concurrent writers.
        checker = _SnapshotVisitor(self.rule, self.pf)
        for stmt in node.body:
            checker.visit(stmt)
        self.findings.extend(checker.findings)


def _generic_read(node: ast.Call) -> str | None:
    """The reader name when ``node`` reads counters of ``self`` generically.

    ``getattr(self, "backend")`` names a non-counter and reads none;
    ``getattr(self, f.name)`` may read any field.
    """
    name = call_name(node)
    if (
        name is None
        or name.rsplit(".", 1)[-1] not in _FIELD_READERS
        or not node.args
        or base_name(node.args[0]) != "self"
    ):
        return None
    if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
        return name if node.args[1].value in STATS_COUNTERS else None
    return name


class _SnapshotVisitor(LockScopeVisitor):
    def __init__(self, rule: "StatsDisciplineRule", pf: ParsedFile) -> None:
        super().__init__()
        self.rule = rule
        self.pf = pf
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, what: str) -> None:
        if not _stats_lock_held(self.held):
            self.findings.append(
                self.rule.finding(
                    self.pf,
                    node,
                    f"snapshot() reads {what} outside the stats lock "
                    "(torn snapshot under concurrent writers)",
                )
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and base_name(node.value) == "self":
            if node.attr in STATS_COUNTERS:
                self._flag(node, f"counter '{node.attr}'")
            elif node.attr == "__dict__":
                self._flag(node, "counters through self.__dict__")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        reader = _generic_read(node)
        if reader is not None:
            self._flag(node, f"counters through {reader}()")
        self.generic_visit(node)


class StatsDisciplineRule(Rule):
    rule_id = "RL002"
    title = "ServiceStats counters are written and snapshotted under the stats lock"
    hint = (
        "wrap the counter update in 'with <stats>.lock:' (take it after any "
        "cache lock, never before); snapshot() must read all fields lock-held"
    )
    default_paths = (
        "core/service.py",
        "core/sharding.py",
        "core/aio.py",
        "core/store.py",
    )

    def check_file(self, pf: ParsedFile, project: Project) -> Iterable[Finding]:
        visitor = _Visitor(self, pf)
        visitor.visit(pf.tree)
        return visitor.findings
