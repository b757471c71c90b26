"""Input pins: the recorded fingerprints of every generated input.

Every workload builds its graphs from a fixed generator seed (the run's
``--seed`` only draws the request stream), so ``pins.json`` holds, per
workload, how many graphs (data graphs and patterns) the generator made
and one digest over their
:func:`~repro.graph.fingerprint.graph_fingerprint`\\ s in order.  Every
run compares its own inputs with the pin, so an edit to
``datasets/synthetic.py`` or ``workload/scenario.py`` cannot silently
change a workload.

Regenerate (only when a workload is changed on purpose)::

    python3 perfbench/pins.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def pin_of(fingerprints: list[str]) -> dict:
    digest = hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()
    return {"graphs": len(fingerprints), "digest": digest}


def load(path: str = PINS_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check(workload, seed: int, fingerprints: list[str], pins: dict) -> tuple[bool, str]:
    """Compare ``seed``'s inputs with the workload's pin.  Returns
    ``(ok, what was checked)``."""
    ok = pin_of(fingerprints) == pins.get(workload.name)
    return ok, f"seed {seed} inputs {'match' if ok else 'DIFFER from'} the pin"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite pins.json")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    pins = {
        name: pin_of(workload.input_fingerprints(workload.generate(0, 1.0)))
        for name, workload in WORKLOADS.items()
    }
    if args.write:
        with open(PINS_PATH, "w") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {PINS_PATH}")
        return 0
    recorded = load()
    stale = [name for name, pin in pins.items() if recorded.get(name) != pin]
    print("\n".join(f"{name} DIFFERS from its pin" for name in stale) or "every pin matches")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
