"""The answer oracle: every answer checked against the paper's definitions.

An answer is a pattern, the data-graph version it was computed on, the
similarity matrix it was judged under, the mapping the service returned
and the quality it reported.  :func:`check_answer` re-derives both
conditions of (1-1) p-hom validity with
:func:`repro.core.phom.check_phom_mapping` and recomputes the reported
quality with :func:`repro.core.quality.match_quality`, independently of
the engine that produced the mapping.

Checks never run on the clock: workloads keep the raw answers and call
this after the measured phase.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.phom import check_phom_mapping
from repro.core.quality import match_quality

#: Reported and recomputed quality may differ by float summation order
#: only (the sharded merge sums per component).
QUALITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""


def check_answer(
    pattern,
    data,
    mat,
    xi: float,
    mapping: dict,
    reported_quality: float,
    metric: str = "cardinality",
    injective: bool = False,
    reach=None,
) -> Verdict:
    """Validate one answer; ``reach`` may be a prebuilt reachability
    index of ``data`` shared by many checks."""
    violations = check_phom_mapping(
        pattern, data, mapping, mat, xi, injective=injective, reach=reach
    )
    if violations:
        first = violations[0]
        return Verdict(False, f"{first.kind}: {first.detail}")
    quality = match_quality(mapping, pattern, mat)
    expected = quality.card if metric == "cardinality" else quality.sim
    if abs(expected - reported_quality) > QUALITY_TOLERANCE:
        return Verdict(
            False,
            f"reported {metric} quality {reported_quality!r}, "
            f"recomputed {expected!r}",
        )
    return Verdict(True)


def answer_key(mapping: dict, quality: float) -> str:
    """A stable digest of one answer (mapping plus quality)."""
    items = sorted((repr(v), repr(u)) for v, u in mapping.items())
    return hashlib.sha256(repr((items, repr(quality))).encode()).hexdigest()[:16]


def digest(keys) -> str:
    """One digest over an ordered sequence of answer keys."""
    h = hashlib.sha256()
    for key in keys:
        h.update(key.encode())
        h.update(b"\n")
    return h.hexdigest()
