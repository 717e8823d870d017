"""Warm-start state for consecutive DPLL(T) solves on one snapshot.

The admission ladder often solves several formulas against the *same*
store snapshot (batch splinters, consecutive requests that publish
nothing).  Those formulas differ — streams come and go — so
CDCL-learned clauses are **not** transferable: they are resolvents of
the input CNF and would be unsound against a different formula.  Three kinds of state *are* sound to carry
across formulas:

* **Theory lemmas.**  A difference-logic conflict clause
  ``¬a₁ ∨ … ∨ ¬aₖ`` (the atoms of a negative cycle) is valid in the
  theory itself, independent of any formula.  Injecting it into a new
  solve whose atom set contains those atoms is always sound and prunes
  the same dead branch without re-deriving it.
* **Branching heuristics.**  VSIDS activities and saved phases, keyed by
  the *canonical atom* rather than the solver-local variable number.
  They only steer the search order — any values are sound.
* **Theory potentials.**  Any integer potential is feasible for an
  empty difference-constraint graph, so the previous solve's final
  ``π`` may seed the next solver before its first assertion and is
  repaired incrementally from a near-solution instead of from zero.

:class:`WarmStartCache` keys entries on the *identity* of the store's
schedule snapshot (plus its topology).  Identity is the honest version
key here: every CAS publish installs a brand-new schedule object, and
the admission service additionally calls :meth:`WarmStartCache.invalidate`
after each publish, so an entry can never outlive the (store version,
topology epoch) it was learned on.  The cache holds a strong reference
to the anchor schedule, so an ``id()`` can never be recycled while its
entry is alive.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.check.sanitizer import make_lock
from repro.smt.terms import Atom

#: Upper bound on lemmas carried per state; beyond this the oldest are
#: dropped (they are redundant clauses — dropping is always sound).
MAX_LEMMAS = 4096


@dataclass
class WarmStartState:
    """Formula-independent solver state exported after one solve."""

    lemmas: List[List[Atom]] = field(default_factory=list)
    phases: Dict[Atom, bool] = field(default_factory=dict)
    activities: Dict[Atom, float] = field(default_factory=dict)
    potentials: Dict[str, int] = field(default_factory=dict)

    def trimmed(self) -> "WarmStartState":
        """A copy obeying :data:`MAX_LEMMAS` (most recent kept)."""
        if len(self.lemmas) <= MAX_LEMMAS:
            return self
        return WarmStartState(
            lemmas=self.lemmas[-MAX_LEMMAS:],
            phases=self.phases,
            activities=self.activities,
            potentials=self.potentials,
        )


class WarmStartCache:
    """Bounded identity-keyed cache of :class:`WarmStartState`.

    Thread-safe leaf lock (never held while calling out).  ``get`` and
    ``put`` take the snapshot *object*; the key is
    ``(id(schedule), id(topology))`` with the schedule kept as a strong
    anchor so the identity stays unambiguous for the entry's lifetime.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = make_lock("warmstart-cache")
        self._entries: "OrderedDict[Tuple[int, int], Tuple[object, WarmStartState]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _key(self, schedule) -> Tuple[int, int]:
        return (id(schedule), id(schedule.topology))

    def get(self, schedule) -> Optional[WarmStartState]:
        key = self._key(schedule)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is schedule:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            self.misses += 1
            return None

    def put(self, schedule, state: WarmStartState) -> None:
        key = self._key(schedule)
        with self._lock:
            self._entries[key] = (schedule, state.trimmed())
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> int:
        """Drop every entry (called after each CAS publish); returns the
        number of entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self.invalidations += 1
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
