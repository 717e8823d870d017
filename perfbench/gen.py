"""Seeded, response-independent admission request sequences.

A sequence is a pure function of ``(seed, count, devices)``
and never looks at a decision: a remove names the admit issued
:data:`WINDOW` admits earlier whether or not that admit was accepted, so
two builds of the program always receive the identical offered
sequence however fast (or however differently) they decide.

Admits come in blocks of :data:`BLOCK` with a fixed composition:
exactly :data:`SHARING` sharing admits, :data:`INFEASIBLE` admits with a
1 ns deadline (conclusively infeasible), frame lengths evenly spaced
over :data:`LENGTHS` and periods split over 5/10/20 ms.  The
blocks themselves (endpoints included) come from a fixed template of
:data:`TEMPLATE_BLOCKS` blocks; the seed draws the order of the blocks
and of the admits within each.  Every seed thus offers the same
multiset of requests per template round, in its own order, which keeps
the share of solver fall-throughs (and so the throughput) nearly
independent of the seed: with i.i.d. requests, decisions/s on the
75 %-load network spread by +-15 % across seeds.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import AdmissionRequest, AdmitTct, Remove

#: Admits per block of fixed composition.
BLOCK = 20
#: Sharing admits per block (30 %).
SHARING = 6
#: Admits per block with a 1 ns deadline (10 %).
INFEASIBLE = 2
#: Period (ms) of each admit in a block, before shuffling.
PERIODS_MS = (5,) * 7 + (10,) * 7 + (20,) * 6
#: End-to-end budget of an infeasible admit.
INFEASIBLE_E2E_NS = 1
#: Blocks in the template every seed draws its admits from.
TEMPLATE_BLOCKS = 5
TEMPLATE_SEED = 20220701
#: Live generated streams: each admit (after the first WINDOW) is
#: followed by a remove of the admit WINDOW admits earlier.
WINDOW = 4
#: Inclusive frame-length range in bytes.
LENGTHS = (200, 1000)
#: Name prefix of every generated stream (disjoint from the base
#: schedules' stream names).
NAME_PREFIX = "pb"


def stream_name(index: int) -> str:
    return f"{NAME_PREFIX}{index}"


def admit_index(name: str) -> int:
    """Inverse of :func:`stream_name`."""
    return int(name[len(NAME_PREFIX):])


def is_infeasible(request: AdmissionRequest) -> bool:
    return (isinstance(request, AdmitTct)
            and request.requirement.e2e_ns == INFEASIBLE_E2E_NS)


def _template(
    devices: Sequence[str],
) -> List[List[Tuple[str, str, int, int, str]]]:
    """:data:`TEMPLATE_BLOCKS` blocks of admit parameters (source,
    destination, period ms, length, flag), the same for every seed."""
    rng = random.Random(TEMPLATE_SEED)
    low, high = LENGTHS
    blocks = []
    for _ in range(TEMPLATE_BLOCKS):
        lengths = [low + (high - low) * k // (BLOCK - 1) for k in range(BLOCK)]
        flags = (["infeasible"] * INFEASIBLE + ["share"] * SHARING
                 + ["plain"] * (BLOCK - INFEASIBLE - SHARING))
        periods = list(PERIODS_MS)
        for column in (lengths, flags, periods):
            rng.shuffle(column)
        blocks.append([
            (*rng.sample(list(devices), 2), period_ms, length, flag)
            for length, flag, period_ms in zip(lengths, flags, periods)
        ])
    return blocks


def admission_mix(
    seed: int, count: int, devices: Sequence[str]
) -> List[AdmissionRequest]:
    """The first ``count`` requests of the mix for ``seed``."""
    if len(devices) < 2:
        raise ValueError("need at least two devices")
    template = _template(devices)
    rng = random.Random(seed)
    requests: List[AdmissionRequest] = []
    admitted = 0
    while len(requests) < count:
        order = list(template)
        rng.shuffle(order)
        for block in order:
            block = list(block)
            rng.shuffle(block)
            for source, destination, period_ms, length, flag in block:
                share = flag == "share"
                requests.append(AdmitTct(TctRequirement(
                    name=stream_name(admitted),
                    source=source,
                    destination=destination,
                    period_ns=milliseconds(period_ms),
                    length_bytes=length,
                    e2e_ns=(INFEASIBLE_E2E_NS if flag == "infeasible"
                            else None),
                    priority=Priorities.SH_PL if share else Priorities.NSH_PH,
                    share=share,
                )))
                if admitted >= WINDOW:
                    requests.append(Remove(stream_name(admitted - WINDOW)))
                admitted += 1
    return requests[:count]
