"""Which program entry points the traced run wraps, and what it notes.

Every wrapper is installed from here, in the benchmark's own code; no
program file changes.  Methods are patched on their class, so every
instance (each shard worker, the spill worker) is covered.  Functions
are patched on every module that bound them by name: ``_solve_prepared``,
``resolve_similarity`` and ``gated_candidate_rows`` are imported into
``service``/``sharding``/``api``, and ``graph_fingerprint`` into most of
the core.

Span notes (``span.info``) are filled after the wrapped call returned,
outside its span.
"""

from __future__ import annotations

import os

import repro.core.aio as aio
import repro.core.api as api
import repro.core.backends.base as backends_base
import repro.core.backends.mmap_block as mmap_block
import repro.core.backends.numpy_block as numpy_block
import repro.core.backends.python_int as python_int
import repro.core.engine as engine
import repro.core.optimize as optimize
import repro.core.prefilter as prefilter
import repro.core.prepared as prepared
import repro.core.service as service
import repro.core.sharding as sharding
import repro.core.store as store
import repro.core.workspace as workspace
import repro.graph.fingerprint as fingerprint

from spans import Tracer

#: MatchingList methods the engine calls per frame — the mask kernels.
KERNEL_METHODS = (
    "is_empty", "solve_trivial", "pick_node", "pick_candidate",
    "settle", "exhaust", "trim", "partition",
)


def _mark_ok(span, args, kwargs, result) -> None:
    span.info = {"ok": result is not None}


def _note_save(span, args, kwargs, result) -> None:
    span.info = {"ok": True, "bytes": os.stat(result).st_size}


def _note_save_delta(span, args, kwargs, result) -> None:
    if result is None:
        span.info = {"ok": False}
    else:
        span.info = {"ok": True, "bytes": result[1]["delta_bytes"]}


def _note_delta(span, args, kwargs, result) -> None:
    stats = result.delta_stats or {}
    span.info = {
        "rows": stats.get("recomputed_nodes", 0),
        "full": bool(stats.get("full_rebuild")),
    }


def _note_workspace(span, args, kwargs, result) -> None:
    span.info = {"pairs": args[0].num_candidate_pairs()}


def _note_plan(span, args, kwargs, result) -> None:
    span.info = {"components": len(result[0])}


def _note_rounds(span, args, kwargs, result) -> None:
    span.info = {"rounds": result[1]["rounds"]}


def _greedy_match(tracer: Tracer, fn):
    """greedy_match with the solving backend's name on its span."""
    def wrapper(workspace_, top_good, injective=False, capacities=None,
                pick="similarity", backend=None):
        span, token = tracer.begin("engine.greedy_match")
        span.info = {
            "backend": workspace_.backend.name if backend is None
            else getattr(backend, "name", backend)
        }
        try:
            return fn(workspace_, top_good, injective, capacities, pick, backend)
        finally:
            tracer.finish(span, token)

    return wrapper


def install(tracer: Tracer, time_kernels: bool = True) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    t = tracer

    def span(name, note=None):
        return lambda fn: t.traced(name, fn, note)

    t.patch_method(aio.AsyncMatchingService, "match",
                   lambda fn: t.traced_async("aio.match", fn))
    t.patch_method(sharding.ShardedMatchingService, "match", span("sharding.match"))
    t.patch_method(sharding.ShardedMatchingService, "match_sharded",
                   span("sharding.match_sharded"))
    t.patch_method(sharding.ShardedMatchingService, "update_graph",
                   span("sharding.update_graph"))
    t.patch_method(sharding.ShardedMatchingService, "plan_for", span("sharding.plan_for"))
    t.patch_method(service.MatchingService, "match", span("service.match"))
    t.patch_method(service.MatchingService, "update_graph", span("service.update_graph"))
    t.patch_method(service.PreparedGraphCache, "prepared_for", span("service.prepared_for"))
    t.patch_method(store.PreparedIndexStore, "load", span("store.load", _mark_ok))
    t.patch_method(store.PreparedIndexStore, "payload_region",
                   span("store.payload_region", _mark_ok))
    t.patch_method(store.PreparedIndexStore, "save", span("store.save", _note_save))
    t.patch_method(store.PreparedIndexStore, "save_delta",
                   span("store.save_delta", _note_save_delta))
    t.patch_method(mmap_block.MmapBlockBackend, "open_payload",
                   span("backends.open_payload"))
    t.patch_method(prepared.PreparedDataGraph, "__init__", span("prepared.build"))
    t.patch_method(prepared.PreparedDataGraph, "from_mapped",
                   span("prepared.from_mapped", _mark_ok))
    t.patch_method(prepared.PreparedDataGraph, "apply_delta",
                   span("incremental.apply_delta", _note_delta))
    t.patch_method(workspace.MatchingWorkspace, "__init__",
                   span("workspace.build", _note_workspace))

    t.patch_function(fingerprint.graph_fingerprint, span("fingerprint"))
    t.patch_function(service.resolve_similarity, span("similarity.resolve"))
    t.patch_function(prefilter.gated_candidate_rows, span("prefilter.gated_rows"))
    t.patch_function(api._solve_prepared, span("api.solve"))
    t.patch_function(optimize.plan_components,
                     span("optimize.plan_components", _note_plan))
    t.patch_function(optimize.solve_component, span("optimize.solve_component"))
    t.patch_function(optimize.comp_max_card_partitioned, span("optimize.partitioned"))
    t.patch_function(engine.comp_max_card_engine,
                     span("engine.comp_max_card", _note_rounds))
    t.patch_function(engine.greedy_match, lambda fn: _greedy_match(t, fn))

    kernel = lambda fn: t.kernel(fn, timed=time_kernels)  # noqa: E731
    # The base class only implements solve_trivial; the rest are abstract.
    t.patch_method(backends_base.MatchingList, "solve_trivial", kernel)
    for cls in (python_int.PythonMatchingList, numpy_block.NumpyMatchingList):
        for name in KERNEL_METHODS:
            if name in cls.__dict__:
                t.patch_method(cls, name, kernel)
    for cls in (python_int.PythonIntBackend, numpy_block.BlockBackendBase):
        for name in ("build_context", "matching_list"):
            t.patch_method(cls, name, kernel)
