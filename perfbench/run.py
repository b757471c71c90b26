"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6-synthetic --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Its ``setup_s`` comes from fresh interpreters (``--setup-only``), half
started before the measured phase and half after it.
``--trace 1`` first repeats that untraced phase as the overhead
reference, then sets up afresh with every layer's entry points wrapped
(:mod:`instrument`) and reports the per-layer metrics.  Every answer of
every phase goes through the oracle afterwards.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name with its unit and sample count.  The exit code is 0 only
when the inputs match their pins and the oracle found no failure.
``--out FILE`` also appends the full result record to ``FILE`` (JSON
lines, the input of ``compare.py``); ``--spans FILE`` writes the traced
phase's spans there, one JSON object per line.  ``--workload all`` runs
every workload in turn, each in its own process.

Scratch stores live under ``.perfbench_tmp/`` in the checkout and are
removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: ``setup_s`` is the median of ``SETUP_PROCESSES`` × ``SETUPS_PER_PROCESS``
#: set-ups, each process a fresh interpreter; half the processes run
#: before the measured phase and half after it.
SETUP_PROCESSES = 8
SETUPS_PER_PROCESS = 2


def _require_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'repro')}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setups(workload, seed: int, seconds: float, scratch: str, reps: int) -> list[float]:
    """Seconds each of ``reps`` set-ups took in this process; only one
    set-up's state is alive at a time."""
    times = []
    for rep in range(reps):
        inputs = workload.generate(seed, seconds)
        gc.collect()  # every set-up starts from the same collector state
        start = time.perf_counter()
        state = workload.setup(inputs, os.path.join(scratch, f"store-{rep}"))
        times.append(time.perf_counter() - start)
        workload.close(state)
        del state, inputs
    return times


def setup_in_processes(args, processes: int) -> list[float]:
    """Set-up times from ``processes`` fresh interpreters run one after
    another.  The host's speed changes over seconds, so set-ups spread
    over several processes sample it where one process's would not."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only", str(SETUPS_PER_PROCESS)]
    times = []
    for _ in range(processes):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-2000:]}")
        times.extend(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def untraced_phase(workload, inputs, seconds: float, scratch: str) -> dict:
    """Set up once, measure the phase and check it."""
    state = workload.setup(inputs, os.path.join(scratch, "store"))
    try:
        workload.warm(state)
        phase = workload.run(state, seconds)
    finally:
        workload.close(state)
    return {"phase": phase, "checked": workload.check(state, phase), "rss_mb": _peak_rss_mb()}


def traced_phase(workload, seed: int, seconds: float, scratch: str) -> dict:
    import instrument
    from spans import Tracer

    tracer = Tracer()
    instrument.install(tracer, time_kernels=workload.time_kernels)
    try:
        inputs = workload.generate(seed, seconds)
        span, token = tracer.begin("bench.setup", rid="setup")
        try:
            state = workload.setup(inputs, os.path.join(scratch, "store-traced"))
        finally:
            tracer.finish(span, token)
        try:
            workload.warm(state)
            before = workload.counters(state)
            phase = workload.run(state, seconds, tracer)
            after = workload.counters(state)
        finally:
            workload.close(state)
    finally:
        tracer.uninstall()
    return {
        "phase": phase,
        "checked": workload.check(state, phase),
        "spans": tracer.spans,
        "before": before,
        "after": after,
    }


def run_all(args) -> int:
    """Run every workload, one process each; non-zero if any failed."""
    from workloads import WORKLOADS

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name, *common]
        status |= subprocess.run(command).returncode
    return status


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record here")
    parser.add_argument("--spans", help="write the traced phase's spans here")
    parser.add_argument("--setup-only", type=int, default=0, metavar="N",
                        help="only time N set-ups and print their seconds as a JSON list")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _require_program()
    if args.workload == "all":
        if args.spans:
            parser.error("--spans takes one workload")
        return run_all(args)

    import metrics
    import oracle
    import pins
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    scratch = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.setup_only:
            print(json.dumps(time_setups(workload, args.seed, args.seconds, scratch,
                                         args.setup_only)))
            return 0
        inputs = workload.generate(args.seed, args.seconds)
        pin_ok, pin_note = pins.check(
            workload, args.seed, workload.input_fingerprints(inputs), pins.load()
        )
        # The traced run reports no setup_s.
        processes = SETUP_PROCESSES if args.trace == 0 else 0
        setup_times = setup_in_processes(args, processes // 2)
        plain = untraced_phase(workload, inputs, args.seconds, scratch)
        del inputs
        setup_times += setup_in_processes(args, processes - processes // 2)
        e2e, report = metrics.end_to_end(
            workload, plain["phase"], plain["checked"], setup_times, plain["rss_mb"]
        )
        phases = [plain]
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "inputs": pin_note,
                  "config": workload.describe(),
                  "answers": oracle.digest(plain["checked"].answer_keys)}
        if args.trace:
            traced = traced_phase(workload, args.seed, args.seconds, scratch)
            phases.append(traced)
            matches = [s.latency for s in plain["phase"].samples
                       if s.ok and s.kind == "match"]
            layer, profile = metrics.per_layer(
                traced["spans"], traced["phase"], traced["before"], traced["after"],
                1e3 * sum(matches) / max(1, len(matches)),
            )
            reported = layer
            record["profile"] = profile
            if args.spans:
                with open(args.spans, "w") as handle:
                    for span in traced["spans"]:
                        handle.write(json.dumps(span.as_dict()) + "\n")
        else:
            reported = e2e
            record["report"] = {k: {"value": v, "n": n} for k, (v, n) in report.items()}
            record["setup_times"] = setup_times
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still holds its own directory there

    failures = [f for p in phases for f in p["checked"].failures]
    errors = [s for p in phases for s in p["phase"].samples if not s.ok]
    attempted = sum(len(p["phase"].samples) for p in phases)
    failed = len(errors) + len(failures)
    correct = pin_ok and failed == 0

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: inputs: {pin_note}")
    for name, (value, n) in report.items():
        # match_p95_ms / match_p85_ms are match_tail_ms under their own name.
        unit = metrics.UNITS.get(name, "ms")
        print(f"{name:34s} {_fmt(value):>14s} {unit:10s} n={n}")
    if args.trace:
        for name, unit, _ in metrics.PER_LAYER:
            print(f"{name:34s} {_fmt(reported[name]):>14s} {unit}")
    for sample in errors[:20]:
        print(f"REQUEST ERROR: request {sample.index}: {sample.error}")
    for failure in failures[:20]:
        print(f"ORACLE FAILURE: {failure}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(reported[name]), "unit": metrics.UNITS[name]}
            for name in (
                [n for n, *_ in metrics.PER_LAYER] if args.trace
                else [n for n, *_ in metrics.END_TO_END]
            )
        },
    }
    if args.out:
        record.update(result)
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
