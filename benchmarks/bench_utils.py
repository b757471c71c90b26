"""Shared benchmark helpers, importable explicitly.

Benchmark modules import from here rather than from ``conftest`` so that
no module in the repo ever does a bare ``import conftest`` — with both
``tests/`` and ``benchmarks/`` on ``sys.path``, that import is ambiguous
and used to break collection from the repo root.

Machine-readable results: running ``pytest benchmarks/... --json PATH``
(option registered in ``benchmarks/conftest.py``) hands benchmarks a
writer — the ``bench_json`` fixture — that drops one ``BENCH_<name>.json``
per benchmark into ``PATH`` (a directory, or an exact ``.json`` file
path when only one benchmark writes).  The files are the perf trajectory
across PRs: commit-comparable numbers instead of eyeballed console
output.  Without ``--json`` the writer is a no-op, so benchmarks always
call it unconditionally.

Every artifact additionally records the writing process's peak RSS
(``peak_rss_kb``), so ``BENCH_*.json`` tracks memory alongside time —
the figure the mmap backend's bounded-memory claim is audited against.
"""

from __future__ import annotations

import hashlib
import json
import resource
from pathlib import Path
from typing import Callable

__all__ = ["run_once", "make_json_writer", "peak_rss_kb", "decode_stored_index"]


def run_once(benchmark, fn, *args, **kwargs):
    """Measure one full execution of an end-to-end experiment."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def peak_rss_kb() -> int:
    """This process's peak resident set size so far, in KiB.

    ``ru_maxrss`` is a monotonic high-water mark for the whole process
    lifetime — comparing two scenarios' peaks honestly requires running
    each in its own (sub)process, not sequentially in one.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def make_json_writer(target: str | None) -> Callable[[str, dict], Path | None]:
    """A ``write(name, payload)`` callable for the ``--json`` option.

    ``target`` of ``None`` (option not given) returns a no-op writer.  A
    ``*.json`` target is written verbatim; anything else is treated as a
    directory (created if needed) receiving ``BENCH_<name>.json``.
    Returns the written path, or ``None`` when disabled.
    """

    def write(name: str, payload: dict) -> Path | None:
        if target is None:
            return None
        payload = dict(payload, peak_rss_kb=peak_rss_kb())
        path = Path(target)
        if path.suffix == ".json":
            path.parent.mkdir(parents=True, exist_ok=True)
            out = path
        else:
            path.mkdir(parents=True, exist_ok=True)
            out = path / f"BENCH_{name}.json"
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return out

    return write


def decode_stored_index(store_dir: str, graph, fingerprint: str):
    """``graph``'s stored index, decoded in full into process memory.

    The steps a decoding store tier takes, for benchmarks that compare
    the store's mapped open against one: read the file, check its sha256
    against the envelope, parse the payload, decode every row to a big
    int, and wrap the rows in a
    :class:`~repro.core.prepared.PreparedDataGraph`.
    """
    from repro.core.prepared import PreparedDataGraph, _int_rows, _parse_payload
    from repro.core.store import _ENVELOPE_LEN, PreparedIndexStore, _parse_envelope

    blob = PreparedIndexStore(store_dir).path_for(fingerprint).read_bytes()
    length, checksum = _parse_envelope(blob)
    payload = blob[_ENVELOPE_LEN:]
    if len(payload) != length or hashlib.sha256(payload).digest() != checksum:
        raise ValueError(f"stored index {fingerprint} failed its checksum")
    header, n, width, masks = _parse_payload(payload)
    rows = _int_rows(masks, width)
    return PreparedDataGraph.from_rows(
        graph,
        rows[:n],
        rows[n : 2 * n],
        rows[2 * n],
        fingerprint=fingerprint,
        num_edges=header["num_edges"],
        prepare_seconds=header["prepare_seconds"],
    )
