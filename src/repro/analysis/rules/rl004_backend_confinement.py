"""RL004: mask representation stays behind the SolverBackend protocol.

Two halves:

1. **Raw mask ops.**  Solver-path modules (``core/engine.py``,
   ``core/optimize.py``, ``core/prefilter.py``, ``core/sharding.py``)
   must not apply raw big-int bit operators (``&``, ``|``, ``^``, shifts, ``~``, ``bit_count`` /
   ``bit_length``) to mask-typed values.  Those operations silently
   assume the python-int representation; a backend whose rows are numpy
   blocks (or mmap views) would have to eagerly hydrate to honor them.
   The blessed escape hatch is :mod:`repro.core.backends.bitops`, whose
   helpers the backends themselves guarantee bit-exact.  Files under
   ``core/backends/`` are exempt — they *are* the representation.

2. **Protocol completeness.**  Every backend registered in the
   ``_FACTORIES`` table must structurally implement the full protocol —
   ``build_rows`` / ``build_context`` / ``matching_list`` /
   ``evolve_rows`` and a ``name`` — in its own MRO, not by silently
   inheriting the abstract ``SolverBackend`` stubs.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, ParsedFile, Project, Rule
from repro.analysis.rules.common import dotted_name

_BIT_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)
_BIT_METHODS = {"bit_count", "bit_length"}

PROTOCOL_CLASS = "SolverBackend"
REGISTRY_NAME = "_FACTORIES"
REQUIRED_METHODS = frozenset({"build_rows", "build_context", "matching_list", "evolve_rows"})


def _mask_like(name: str) -> bool:
    lowered = name.lower()
    return "mask" in lowered or lowered in ("good", "minus")


def _mentions_mask(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _mask_like(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _mask_like(sub.attr):
            return True
    return False


class _RawOpVisitor(ast.NodeVisitor):
    def __init__(self, rule: "BackendConfinementRule", pf: ParsedFile) -> None:
        self.rule = rule
        self.pf = pf
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            self.rule.finding(self.pf, node, f"raw {what} on a mask-typed value")
        )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, _BIT_OPS) and _mentions_mask(node):
            self._flag(node, f"'{type(node.op).__name__}' bit operation")
            return  # one finding per outermost masked expression
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, _BIT_OPS) and (
            _mentions_mask(node.target) or _mentions_mask(node.value)
        ):
            self._flag(node, f"'{type(node.op).__name__}' augmented bit assignment")
            return
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Invert) and _mentions_mask(node.operand):
            self._flag(node, "'~' bit inversion")
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _BIT_METHODS
            and _mentions_mask(node.func.value)
        ):
            self._flag(node, f"'.{node.func.attr}()' call")
            return
        self.generic_visit(node)


def _class_defs(cls: ast.ClassDef) -> tuple[set[str], set[str]]:
    """(method names, class-level assigned names) defined directly on ``cls``."""
    methods: set[str] = set()
    assigns: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    assigns.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                assigns.add(stmt.target.id)
    return methods, assigns


class BackendConfinementRule(Rule):
    rule_id = "RL004"
    title = "mask ops confined to backends; registered backends implement the full protocol"
    hint = (
        "route mask arithmetic through repro.core.backends.bitops (or a "
        "SolverBackend method); backends must define build_rows, "
        "build_context, matching_list, evolve_rows, name"
    )
    default_paths = (
        "core/engine.py",
        "core/optimize.py",
        "core/prefilter.py",
        "core/sharding.py",
        "core/backends/__init__.py",
    )

    def check_file(self, pf: ParsedFile, project: Project) -> Iterable[Finding]:
        if "/backends/" in pf.path.as_posix() or pf.path.name == "bitops.py":
            return ()
        visitor = _RawOpVisitor(self, pf)
        visitor.visit(pf.tree)
        return visitor.findings

    def check_project(self, project: Project) -> Iterable[Finding]:
        registries = self._find_registries(project)
        classes = project.classes()
        for pf, registry in registries:
            for value in registry.values:
                name = dotted_name(value)
                if name is None:
                    continue
                class_name = name.split(".")[-1]
                entry = classes.get(class_name)
                if entry is None:
                    continue  # imported from outside the scanned tree
                yield from self._check_backend(class_name, entry, classes)

    def _find_registries(self, project: Project) -> list[tuple[ParsedFile, ast.Dict]]:
        found = []
        for pf in project.files:
            for node in ast.walk(pf.tree):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Dict)
                    and any(
                        isinstance(t, ast.Name) and t.id == REGISTRY_NAME
                        for t in node.targets
                    )
                ):
                    found.append((pf, node.value))
        return found

    def _check_backend(
        self,
        class_name: str,
        entry: tuple[ast.ClassDef, ParsedFile],
        classes: dict[str, tuple[ast.ClassDef, ParsedFile]],
    ) -> Iterable[Finding]:
        cls, pf = entry
        methods: set[str] = set()
        assigns: set[str] = set()
        # Walk the MRO by name; the abstract protocol class contributes
        # nothing (its stubs are not implementations).
        queue = [class_name]
        seen: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen or current == PROTOCOL_CLASS:
                continue
            seen.add(current)
            node = classes.get(current)
            if node is None:
                continue
            cls_methods, cls_assigns = _class_defs(node[0])
            methods.update(cls_methods)
            assigns.update(cls_assigns)
            for base in node[0].bases:
                base_dotted = dotted_name(base)
                if base_dotted is not None:
                    queue.append(base_dotted.split(".")[-1])

        missing = sorted(REQUIRED_METHODS - methods)
        if missing:
            yield self.finding(
                pf,
                cls,
                f"registered backend {class_name} does not implement: {', '.join(missing)}",
            )
        if "name" not in assigns and "name" not in methods:
            yield self.finding(
                pf,
                cls,
                f"registered backend {class_name} does not define a 'name'",
            )
