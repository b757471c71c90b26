"""Command-line interface: match graphs from JSON files.

    python -m repro match PATTERN.json DATA.json [options]
    python -m repro batch DATA.json PATTERN.json [PATTERN.json ...] [options]
    python -m repro index warm STORE_DIR DATA.json [DATA.json ...] [--shards N]
    python -m repro index evolve STORE_DIR OLD.json NEW.json [--chain]
    python -m repro index compact STORE_DIR GRAPH.json
    python -m repro index ls STORE_DIR [--json]
    python -m repro index rm STORE_DIR FINGERPRINT... | --all | --older-than SECONDS
    python -m repro index gc STORE_DIR --max-bytes N
    python -m repro stats GRAPH.json
    python -m repro closure GRAPH.json OUT.json

Graphs use the JSON format of :mod:`repro.graph.io` (see ``to_json_dict``).
Similarity defaults to label equality; ``--similarity shingles`` computes
Broder shingle resemblance over a ``content`` attribute per node, and
``--similarity FILE.json`` loads explicit pairs
(``[["v", "u", 0.8], ...]``).

``batch`` matches many patterns against one data graph through a
:class:`~repro.core.service.MatchingService` session, so the data graph's
``G2⁺`` index is built exactly once.  It emits one JSON line per pattern
followed by a summary line carrying the service statistics (prepares,
cache hits, prepare vs solve seconds); ``--parallel N`` fans the pattern
solves out over ``N`` threads.

``--store-dir DIR`` (on ``match`` and ``batch``) attaches a persistent
:class:`~repro.core.store.PreparedIndexStore`: prepared ``G2⁺`` indexes
are loaded from — and saved to — ``DIR``, so separate process runs share
preparation work.  ``index warm`` pre-builds a store for a fleet of cold
workers; ``index ls`` / ``index rm`` inspect and prune it, and the GC
pair — ``index rm --older-than SECONDS`` (age-based) and ``index gc
--max-bytes N`` (size budget, oldest-mtime evicted first) — keeps a
long-lived fleet's store bounded.

``--backend {python,numpy}`` (on ``match``, ``batch`` and ``index
warm``; ``mmap`` is an alias of ``numpy``) selects the solver mask
representation — results are bit-identical, only speed differs; the
``REPRO_BACKEND`` environment variable changes the default.  Output
summaries record which backend served (``backend`` / ``solved_by``) so
operators can audit a fleet.  Every backend hydrates warm-store indexes
*zero-copy*: the store file is memory-mapped and the mask rows are
served straight off the mapped pages (``disk_hits`` / ``mapped_bytes``
in the service stats; the ``numpy`` backend views them as its uint64
blocks), so cold starts skip the payload decode and resident memory
tracks the working set.  ``index warm --backend B`` verifies exactly
that path (its report lines say ``"hydration": "mapped"``), and
``index ls --json`` carries ``payload_bytes`` / ``mask_section_bytes``
per entry so operators can size page-cache budgets.  Store files are
format version 3; a file in an older format is rebuilt on first use.

``--prefilter {auto,off,strict}`` (on ``match`` and ``batch``) engages
the candidate-pruning pipeline (:mod:`repro.core.prefilter`): ``auto``
prunes candidate construction and shard fan-out where results stay
bit-identical (``pairs_pruned`` / ``shards_skipped`` in the service
stats), ``strict`` adds sketch pair pruning (the approximate tier).
The sketches are not stored: each index derives them from its closure
rows on its first ``strict`` request.

``index evolve`` carries a warmed store across a data-graph edit
*incrementally*: the old snapshot's stored ``G2⁺`` index is evolved to
the new snapshot's content — a structural diff drives
:meth:`~repro.core.prepared.PreparedDataGraph.apply_delta`, which
recomputes only the closure rows the edit touched — and persisted under
the new fingerprint, so the fleet keeps serving with zero cold prepares
while its graph mutates.  In-process, the same machinery runs
automatically: a :class:`~repro.core.service.MatchingService` evolves
its cached index when a served graph mutates (``delta_hits`` /
``delta_nodes_recomputed`` in the ``batch`` summary audit it).

``index evolve --chain`` persists the evolution as a compact *delta
record* against the stored base instead of rewriting the full payload —
for a small edit the write shrinks by the touched-row fraction, and
hydration maps the base file with the chain's replayed rows laid over
it.  An edit that adds or removes nodes is saved in full instead
(``"action": "evolved"``).  Chains cap at
:data:`~repro.core.store.CHAIN_DEPTH_MAX`; at the cap the store writes a
fresh full base automatically (``"action": "compacted"``), and ``index
compact`` forces that flatten on demand.  ``index ls --json`` carries
``chain_depth`` per entry so operators can watch replay depth.

``batch --shards N`` serves through a
:class:`~repro.core.sharding.ShardedMatchingService`: the data graph is
partitioned into closure-closed shards (whole weakly connected
components, so the SCC condensation is respected), pattern components
are solved per shard and merged under Proposition 1 — bit-identical to
``--shards 1`` and to ``--partitioned`` at any shard count, but on
shard-width masks (cardinality metric only).  The summary then carries
``shards`` and a per-shard statistics breakdown.  ``index warm
--shards N`` pre-builds the matching per-shard indexes into the store
(the files a sharded fleet loads on boot), and ``index ls --json``
emits one machine-readable document (fingerprint, bytes, mtime,
payload version) for fleet tooling to script warm/GC decisions.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.api import match
from repro.core.backends import BACKEND_NAMES, get_backend
from repro.core.phom import check_phom_mapping
from repro.core.prefilter import PREFILTER_MODES, LabelEqualitySimilarity
from repro.core.prepared import PreparedDataGraph
from repro.core.service import MatchingService
from repro.core.sharding import ShardPlan, ShardedMatchingService
from repro.core.store import PreparedIndexStore
from repro.graph.closure import transitive_closure_graph
from repro.graph.fingerprint import graph_fingerprint, is_fingerprint
from repro.graph.io import dump_json, load_json
from repro.graph.stats import graph_stats
from repro.similarity.labels import label_equality_matrix
from repro.similarity.matrix import SimilarityMatrix
from repro.similarity.shingles import ShingleIndex, shingle_similarity_matrix
from repro.utils.timing import Stopwatch

__all__ = ["main"]

#: Shared ``--backend`` help string (match / batch / index warm).
BACKEND_HELP = (
    "solver backend (default: REPRO_BACKEND or 'python'); 'mmap' is an "
    "alias of 'numpy', whose store hits are memory-mapped; results are "
    "identical across backends, only speed differs"
)

#: Shared ``--prefilter`` help string (match / batch).
PREFILTER_HELP = (
    "candidate prefilter: 'auto' (default) prunes candidate work where "
    "results stay bit-identical, 'off' disables it, 'strict' adds sketch "
    "pair pruning (valid mappings, quality may drop; needs the "
    "partitioned/sharded path)"
)


def _load_similarity(spec: str, pattern, data) -> SimilarityMatrix:
    if spec == "labels":
        return label_equality_matrix(pattern, data)
    if spec == "shingles":
        return shingle_similarity_matrix(pattern, data)
    with open(spec, "r", encoding="utf-8") as handle:
        entries = json.load(handle)
    mat = SimilarityMatrix()
    for v, u, score in entries:
        mat.set(v, u, float(score))
    return mat


def _cmd_match(args: argparse.Namespace) -> int:
    pattern = load_json(args.pattern)
    data = load_json(args.data)
    if args.similarity == "labels" and args.prefilter != "off":
        # Hand the matcher the label gate itself, not an evaluated
        # matrix — the prefilter pipeline then builds candidate rows
        # straight from label indexes (results stay bit-identical).
        mat: object = LabelEqualitySimilarity()
    else:
        mat = _load_similarity(args.similarity, pattern, data)
    options = dict(
        xi=args.xi,
        metric=args.metric,
        injective=args.injective,
        threshold=args.threshold,
        partitioned=args.partitioned,
        symmetric=args.symmetric,
        pick=args.pick,
        backend=args.backend,
        prefilter=args.prefilter,
    )
    if args.store_dir is not None:
        # A dedicated service so the disk tier is read *and* warmed.
        service = MatchingService(store_dir=args.store_dir)
        report = service.match(pattern, data, mat, **options)
    else:
        report = match(pattern, data, mat, **options)
    payload = {
        "matched": report.matched,
        "quality": report.quality,
        "metric": report.metric,
        "threshold": report.threshold,
        "backend": get_backend(args.backend).name,
        "qual_card": report.result.qual_card,
        "qual_sim": report.result.qual_sim,
        "mapping": {str(v): str(u) for v, u in sorted(report.result.mapping.items(), key=repr)},
        "stats": report.result.stats,
    }
    if args.verify:
        verify_mat = (
            mat(pattern, data) if isinstance(mat, LabelEqualitySimilarity) else mat
        )
        violations = check_phom_mapping(
            pattern, data, report.result.mapping, verify_mat, args.xi,
            injective=args.injective,
        )
        payload["violations"] = [f"{v.kind}: {v.detail}" for v in violations]
    json.dump(payload, sys.stdout, indent=1)
    print()
    return 0 if report.matched else 1


def _similarity_source(spec: str, data, prefilter: str = "off"):
    """The batch similarity source: evaluated per (pattern, data) pair."""
    if spec == "shingles":
        # Build the data-side shingle sets + inverted index once for the
        # whole batch, not once per pattern.
        index = ShingleIndex(data)
        return lambda pattern, _data: index.matrix_for(pattern)
    if spec == "labels":
        if prefilter != "off":
            # The gate object lets the prefilter skip matrix evaluation
            # entirely (rows come from label indexes, bit-identical).
            return LabelEqualitySimilarity()
        return lambda pattern, data: _load_similarity(spec, pattern, data)
    return _load_similarity(spec, None, None)  # a file: shared by all patterns


def _cmd_batch(args: argparse.Namespace) -> int:
    data = load_json(args.data)
    patterns = [load_json(path) for path in args.patterns]
    if args.shards is not None:
        if args.shards < 1:
            print("batch --shards needs a positive shard count", file=sys.stderr)
            return 2
        if args.metric != "cardinality":
            print(
                "batch --shards is implemented for the cardinality metric",
                file=sys.stderr,
            )
            return 2
        service = ShardedMatchingService(
            args.shards, store_dir=args.store_dir, backend=args.backend
        )
        reports = service.match_many_sharded(
            patterns,
            data,
            _similarity_source(args.similarity, data, args.prefilter),
            args.xi,
            metric=args.metric,
            injective=args.injective,
            threshold=args.threshold,
            symmetric=args.symmetric,
            pick=args.pick,
            max_workers=args.parallel,
            prefilter=args.prefilter,
        )
        service_stats = service.stats_snapshot()
        backend_name = service.backend.name
    else:
        service = MatchingService(store_dir=args.store_dir, backend=args.backend)
        reports = service.match_many(
            patterns,
            data,
            _similarity_source(args.similarity, data, args.prefilter),
            args.xi,
            metric=args.metric,
            injective=args.injective,
            threshold=args.threshold,
            partitioned=args.partitioned,
            symmetric=args.symmetric,
            pick=args.pick,
            max_workers=args.parallel,
            prefilter=args.prefilter,
        )
        service_stats = service.stats.snapshot()
        backend_name = service.backend.name
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for path, pattern, report in zip(args.patterns, patterns, reports):
            line = {
                "pattern": path,
                "name": pattern.name,
                "matched": report.matched,
                "quality": report.quality,
                "qual_card": report.result.qual_card,
                "qual_sim": report.result.qual_sim,
                "mapping": {
                    str(v): str(u)
                    for v, u in sorted(report.result.mapping.items(), key=repr)
                },
            }
            json.dump(line, out)
            out.write("\n")
        summary = {
            "summary": True,
            "patterns": len(patterns),
            "matched": sum(1 for report in reports if report.matched),
            "backend": backend_name,
            "service": service_stats,
        }
        if args.shards is not None:
            summary["shards"] = args.shards
        json.dump(summary, out)
        out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _hydration_check(
    store: PreparedIndexStore, fingerprint: str, graph, backend
) -> str:
    """Hydrate the warmed index's rows the way the serving fleet would.

    Re-opens the stored file *zero-copy* under ``backend`` — which both
    proves the file is mappable and performs (and sidecar-caches) the
    full content verification, so the fleet's first mapped open can skip
    whole-file hashing.  Returns the report line's hydration mode:
    ``"mapped"``, or ``"unmapped"`` when the file could not be re-opened.
    """
    try:
        region = store.payload_region(fingerprint, verify="full")
        if region is not None:
            mapped = PreparedDataGraph.from_mapped(
                graph, backend.open_payload(region), fingerprint=fingerprint
            )
            mapped.backend_rows(backend)
            return "mapped"
    except (ValueError, KeyError, TypeError, OSError):
        pass
    return "unmapped"


def _warm_one(
    store: PreparedIndexStore, graph, backend, force: bool, line: dict
) -> dict:
    """Warm one graph's index into the store; returns the report line.

    Every warmed index is re-opened zero-copy under ``--backend``, with
    the full content verification (see :func:`_hydration_check`), both
    as a verification pass and so the warm's cost profile matches the
    serving fleet's; the report line says whether that mapped open
    succeeded.  "exists" only counts when an already stored file passes
    it — a corrupt or stale file must be rebuilt, not reported as warm.
    """
    fingerprint = graph_fingerprint(graph)
    line = dict(line, fingerprint=fingerprint, backend=backend.name)
    if not force:
        hydration = _hydration_check(store, fingerprint, graph, backend)
        if hydration == "mapped":
            line.update(hydration=hydration, action="exists")
            return line
    prepared = PreparedDataGraph(graph, fingerprint=fingerprint)
    with Stopwatch() as watch:
        stored_at = store.save(prepared)
    line.update(
        action="stored",
        hydration=_hydration_check(store, fingerprint, graph, backend),
        nodes=prepared.num_nodes(),
        edges=prepared.num_edges(),
        prepare_seconds=prepared.prepare_seconds,
        store_seconds=watch.elapsed,
        path=str(stored_at),
    )
    return line


def _cmd_index_warm(args: argparse.Namespace) -> int:
    """Persist prepared indexes: whole graphs, or per-shard subgraphs.

    ``--shards N`` warms the indexes a sharded fleet actually loads —
    one per nonempty shard of the :class:`~repro.core.sharding.ShardPlan`
    (the same closure-closed partition ``batch --shards N`` serves
    from, so the shard fingerprints line up).
    """
    if args.shards is not None and args.shards < 1:
        print("index warm --shards needs a positive shard count", file=sys.stderr)
        return 2
    store = PreparedIndexStore(args.store_dir)
    backend = get_backend(args.backend)
    for path in args.graphs:
        graph = load_json(path)
        if args.shards is None:
            json.dump(
                _warm_one(store, graph, backend, args.force, {"graph": path}),
                sys.stdout,
            )
            print()
            continue
        plan = ShardPlan.for_data_graph(graph, args.shards)
        for shard_id in plan.nonempty_shards():
            line = _warm_one(
                store,
                plan.shard_graph(shard_id),
                backend,
                args.force,
                {"graph": path, "shard": shard_id, "shards": args.shards},
            )
            json.dump(line, sys.stdout)
            print()
    return 0


def _cmd_index_evolve(args: argparse.Namespace) -> int:
    """Evolve a stored index across a data-graph edit (old → new snapshot).

    Falls back to a cold warm of the new snapshot when the old one was
    never stored (``--cold-ok``; without it a missing base is an error —
    a fleet operator usually wants to know the store went cold).
    """
    store = PreparedIndexStore(args.store_dir)
    backend = get_backend(args.backend)
    old_graph = load_json(args.old)
    new_graph = load_json(args.new)
    evolved, info = store.evolve(
        old_graph, new_graph, cutoff=args.cutoff, chain=args.chain
    )
    line = dict(info, old=args.old, new=args.new, backend=backend.name)
    if evolved is None:
        if not args.cold_ok:
            json.dump(line, sys.stdout)
            print()
            print(
                f"index evolve: no stored index for {args.old} "
                "(run `index warm`, or pass --cold-ok to warm the new snapshot)",
                file=sys.stderr,
            )
            return 1
        line = _warm_one(store, new_graph, backend, False, line)
    else:
        # Hydration check, as in `warm`.
        line["hydration"] = _hydration_check(
            store, evolved.fingerprint, new_graph, backend
        )
    json.dump(line, sys.stdout)
    print()
    return 0


def _cmd_index_compact(args: argparse.Namespace) -> int:
    """Flatten a stored index's delta chain into a fresh full base.

    Bounded chain replay is the read-path cost of ``evolve --chain``;
    compacting resets ``chain_depth`` to 0 so hydration maps one file
    with no records to replay.  A depth-0 entry is reported, not
    rewritten.
    """
    store = PreparedIndexStore(args.store_dir, create=False)
    graph = load_json(args.graph)
    info = store.compact(graph_fingerprint(graph), graph)
    json.dump(dict(info, graph=args.graph), sys.stdout)
    print()
    if info["action"] == "missing":
        print(f"index compact: no stored index for {args.graph}", file=sys.stderr)
        return 1
    if info["action"] == "unreadable":
        print(
            f"index compact: broken delta chain for {args.graph} "
            "(re-warm with `index warm`)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_index_ls(args: argparse.Namespace) -> int:
    store = PreparedIndexStore(args.store_dir, create=False)
    entries = store.entries()
    if args.json:
        # One machine-readable document — what fleet tooling consumes to
        # script warm/GC decisions (fingerprint, bytes, mtime, payload
        # version per entry; the payload itself is backend-neutral).
        json.dump(
            {
                "store_dir": str(store.store_dir),
                "entries": [entry.as_dict() for entry in entries],
                "count": len(entries),
                "total_bytes": sum(entry.file_bytes for entry in entries),
            },
            sys.stdout,
            indent=1,
            sort_keys=True,
        )
        print()
        return 0
    for entry in entries:
        json.dump(entry.as_dict(), sys.stdout)
        print()
    json.dump({"summary": True, "entries": len(entries)}, sys.stdout)
    print()
    return 0


def _cmd_index_rm(args: argparse.Namespace) -> int:
    store = PreparedIndexStore(args.store_dir, create=False)
    if args.older_than is not None:
        if args.all or args.fingerprints:
            print(
                "index rm --older-than cannot be combined with fingerprints or --all",
                file=sys.stderr,
            )
            return 2
        if args.older_than < 0:
            print("index rm --older-than needs a nonnegative age", file=sys.stderr)
            return 2
        removed = store.remove_older_than(args.older_than)
    elif args.all:
        removed = store.clear()
    else:
        if not args.fingerprints:
            print(
                "index rm needs fingerprints, --all, or --older-than",
                file=sys.stderr,
            )
            return 2
        removed = 0
        for spec in args.fingerprints:
            if not is_fingerprint(spec, prefix=True):
                print(f"not a fingerprint (prefix): {spec!r}", file=sys.stderr)
                return 2
            matches = [fp for fp in store.fingerprints() if fp.startswith(spec)]
            if len(matches) > 1:
                print(f"ambiguous fingerprint prefix: {spec!r}", file=sys.stderr)
                return 2
            if matches and store.remove(matches[0]):
                removed += 1
    json.dump({"removed": removed}, sys.stdout)
    print()
    return 0


def _cmd_index_gc(args: argparse.Namespace) -> int:
    store = PreparedIndexStore(args.store_dir, create=False)
    if args.max_bytes < 0:
        print("index gc needs a nonnegative --max-bytes", file=sys.stderr)
        return 2
    json.dump(store.gc_max_bytes(args.max_bytes), sys.stdout)
    print()
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    return args.index_handler(args)


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    stats = graph_stats(graph)
    json.dump(
        {
            "name": graph.name,
            "nodes": stats.num_nodes,
            "edges": stats.num_edges,
            "avg_degree": stats.avg_degree,
            "max_degree": stats.max_degree,
        },
        sys.stdout,
        indent=1,
    )
    print()
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    graph = load_json(args.graph)
    dump_json(transitive_closure_graph(graph), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    matcher = sub.add_parser("match", help="match PATTERN against DATA")
    matcher.add_argument("pattern")
    matcher.add_argument("data")
    matcher.add_argument("--xi", type=float, default=0.75, help="similarity threshold")
    matcher.add_argument(
        "--similarity",
        default="labels",
        help="'labels', 'shingles', or a JSON file of [v, u, score] triples",
    )
    matcher.add_argument(
        "--metric", choices=("cardinality", "similarity"), default="cardinality"
    )
    matcher.add_argument("--injective", action="store_true", help="1-1 p-hom")
    matcher.add_argument("--threshold", type=float, default=0.75)
    matcher.add_argument("--partitioned", action="store_true")
    matcher.add_argument("--symmetric", action="store_true", help="match G1+ (path-to-path)")
    matcher.add_argument(
        "--pick", choices=("similarity", "arbitrary"), default="similarity",
        help="greedyMatch candidate rule",
    )
    matcher.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persistent prepared-index store to read/warm",
    )
    matcher.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="%s" % BACKEND_HELP,
    )
    matcher.add_argument(
        "--prefilter", choices=PREFILTER_MODES, default="auto", help=PREFILTER_HELP
    )
    matcher.add_argument("--verify", action="store_true", help="re-check the mapping")
    matcher.set_defaults(handler=_cmd_match)

    batch = sub.add_parser(
        "batch", help="match many PATTERNs against one DATA graph, JSON-lines out"
    )
    batch.add_argument("data")
    batch.add_argument("patterns", nargs="+", metavar="pattern")
    batch.add_argument("--xi", type=float, default=0.75, help="similarity threshold")
    batch.add_argument(
        "--similarity",
        default="labels",
        help="'labels', 'shingles', or a JSON file of [v, u, score] triples",
    )
    batch.add_argument(
        "--metric", choices=("cardinality", "similarity"), default="cardinality"
    )
    batch.add_argument("--injective", action="store_true", help="1-1 p-hom")
    batch.add_argument("--threshold", type=float, default=0.75)
    batch.add_argument("--partitioned", action="store_true")
    batch.add_argument("--symmetric", action="store_true", help="match G1+ (path-to-path)")
    batch.add_argument(
        "--pick", choices=("similarity", "arbitrary"), default="similarity",
        help="greedyMatch candidate rule",
    )
    batch.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="persistent prepared-index store to read/warm",
    )
    batch.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="%s" % BACKEND_HELP,
    )
    batch.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="solve patterns over N worker threads",
    )
    batch.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="serve through a sharded cluster: partition the data graph "
        "into N closure-closed shards and fan pattern components out "
        "(bit-identical to --shards 1; cardinality metric only)",
    )
    batch.add_argument(
        "--prefilter", choices=PREFILTER_MODES, default="auto", help=PREFILTER_HELP
    )
    batch.add_argument("--out", default=None, help="write JSON lines here (default stdout)")
    batch.set_defaults(handler=_cmd_batch)

    index = sub.add_parser(
        "index", help="manage a persistent prepared-index store directory"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    warm = index_sub.add_parser(
        "warm", help="prepare data graphs and persist their G2+ indexes"
    )
    warm.add_argument("store_dir", help="store directory (created if missing)")
    warm.add_argument("graphs", nargs="+", metavar="graph", help="data graph JSON files")
    warm.add_argument(
        "--force", action="store_true", help="re-prepare even when already stored"
    )
    warm.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="%s" % BACKEND_HELP,
    )
    warm.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="warm the per-shard indexes of an N-shard plan instead of "
        "the whole-graph index (what `batch --shards N` serves from)",
    )
    warm.set_defaults(handler=_cmd_index, index_handler=_cmd_index_warm)

    evolve = index_sub.add_parser(
        "evolve",
        help="incrementally carry a stored G2+ index from an old data-graph "
        "snapshot to a new one (only the touched closure rows recompute)",
    )
    evolve.add_argument("store_dir", help="store directory (created if missing)")
    evolve.add_argument("old", help="data graph JSON the store was warmed from")
    evolve.add_argument("new", help="mutated data graph JSON to evolve onto")
    evolve.add_argument(
        "--cutoff", type=float, default=None, metavar="FRACTION",
        help="dirty-row fraction beyond which evolution falls back to a "
        "full re-prepare (default 0.8)",
    )
    evolve.add_argument(
        "--cold-ok", action="store_true",
        help="warm the new snapshot from scratch when the old one was never stored",
    )
    evolve.add_argument(
        "--chain", action="store_true",
        help="persist the evolution as a compact delta record against the "
        "stored base instead of a full payload rewrite (replayed over the "
        "mapped base on hydration; an edit that adds or removes nodes, or "
        "a chain at the depth cap, writes a fresh full base instead)",
    )
    evolve.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="%s" % BACKEND_HELP,
    )
    evolve.set_defaults(handler=_cmd_index, index_handler=_cmd_index_evolve)

    compact = index_sub.add_parser(
        "compact",
        help="flatten a stored index's delta chain into a fresh full base "
        "(chain_depth resets to 0)",
    )
    compact.add_argument("store_dir")
    compact.add_argument("graph", help="data graph JSON the chained index serves")
    compact.set_defaults(handler=_cmd_index, index_handler=_cmd_index_compact)

    ls = index_sub.add_parser("ls", help="list stored indexes (JSON lines)")
    ls.add_argument("store_dir")
    ls.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable document (fingerprint, bytes, "
        "mtime, payload version) instead of JSON lines",
    )
    ls.set_defaults(handler=_cmd_index, index_handler=_cmd_index_ls)

    rm = index_sub.add_parser("rm", help="remove stored indexes by fingerprint")
    rm.add_argument("store_dir")
    rm.add_argument(
        "fingerprints", nargs="*", metavar="fingerprint",
        help="full digests or unambiguous prefixes",
    )
    rm.add_argument("--all", action="store_true", help="remove every stored index")
    rm.add_argument(
        "--older-than", type=float, default=None, metavar="SECONDS",
        help="remove indexes whose file mtime is older than SECONDS ago",
    )
    rm.set_defaults(handler=_cmd_index, index_handler=_cmd_index_rm)

    gc = index_sub.add_parser(
        "gc", help="evict oldest-mtime indexes until the store fits a byte budget"
    )
    gc.add_argument("store_dir")
    gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="total store size to shrink to (oldest files evicted first)",
    )
    gc.set_defaults(handler=_cmd_index, index_handler=_cmd_index_gc)

    stats = sub.add_parser("stats", help="Table 2 statistics of one graph")
    stats.add_argument("graph")
    stats.set_defaults(handler=_cmd_stats)

    closure = sub.add_parser("closure", help="write the transitive closure G+")
    closure.add_argument("graph")
    closure.add_argument("out")
    closure.set_defaults(handler=_cmd_closure)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
