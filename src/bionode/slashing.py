"""Perpetration classification and the blacklist ladder.

Each offense kind carries a severity, a base blacklisting period, whether
repeat offenses escalate, and side effects on the node's standing.
Escalating kinds start at their base period's rung on the shared ladder
and climb one rung per repeat of the same kind; past the last rung is
forever. The table and the ladder are read at import from
bionode/data/slashing_table.json; a kind or effect the enums do not name
stops the import.

A month is 30.44 days of simulated time, so periods are exact integer
second counts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources


MONTH_SECONDS = 2_630_016  # 30.44 days
FOREVER = "forever"


class PerpetrationKind(Enum):
    MissedMonthlyVerification = "MissedMonthlyVerification"
    MismatchedProposalType = "MismatchedProposalType"
    FailedFormationDelivery = "FailedFormationDelivery"
    Offline48h = "Offline48h"
    MismatchedProposalTypeNoRight = "MismatchedProposalTypeNoRight"
    UptimeBelow91 = "UptimeBelow91"
    FalseTransaction = "FalseTransaction"


class Effect(Enum):
    ExcludedFromValidators = "ExcludedFromValidators"
    Deactivated = "Deactivated"
    FeesStopped = "FeesStopped"
    DevotionNullified = "DevotionNullified"


@dataclass(frozen=True)
class Perpetration:
    kind: PerpetrationKind
    severity: int
    base_period_months: Fraction
    scalable: bool
    effects: frozenset[Effect]


_DOC = json.loads(resources.files("bionode.data").joinpath("slashing_table.json").read_text())
# the file's ladder ends at "forever", which scaling_ladder returns past the last rung
SCALING_LADDER_MONTHS: tuple[Fraction, ...] = tuple(map(Fraction, _DOC["ladder_months"][:-1]))
PERPETRATION_TABLE: dict[PerpetrationKind, Perpetration] = {
    p.kind: p
    for p in (
        Perpetration(PerpetrationKind(r["kind"]), r["severity"], Fraction(r["base_period_months"]),
                     r["scalable"], frozenset(map(Effect, r["effects"])))
        for r in _DOC["perpetrations"]
    )
}


def scaling_ladder(offense_index: int):
    """Period for the given rung; anything past the last rung is forever."""
    if offense_index < 0:
        raise ValueError("offense index cannot be negative")
    if offense_index >= len(SCALING_LADDER_MONTHS):
        return FOREVER
    return SCALING_LADDER_MONTHS[offense_index]


def period_for(kind: PerpetrationKind, offense_index: int):
    """Blacklisting period in months for the offense_index-th repeat."""
    spec = PERPETRATION_TABLE[kind]
    if not spec.scalable:
        return spec.base_period_months
    start = SCALING_LADDER_MONTHS.index(spec.base_period_months)
    return scaling_ladder(start + offense_index)


def months_to_seconds(months: Fraction) -> int:
    secs = months * MONTH_SECONDS
    if secs.denominator != 1:
        raise ValueError(f"period {months} months is not a whole second count")
    return secs.numerator


@functools.cache
def offense_term(kind: PerpetrationKind, rung: int) -> tuple[object, int | None]:
    """(period in months, period in seconds or None for forever) of a kind's
    rung-th offense. Callers clamp rung at len(SCALING_LADDER_MONTHS): every
    later offense reads forever too, so the cache holds at most
    kinds x (rungs + 1) entries."""
    months = period_for(kind, rung)
    return months, None if months == FOREVER else months_to_seconds(months)


@dataclass(frozen=True)
class BlacklistEntry:
    node_id: str
    kind: PerpetrationKind
    offense_index: int
    period_months: object  # Fraction or FOREVER
    effects: frozenset[Effect]
    issued_at: int  # seconds of simulated time
    ends_at: int | None  # first second not covered; None: forever

    def covers(self, now: int) -> bool:
        return self.issued_at <= now and (self.ends_at is None or now < self.ends_at)

    def to_record(self) -> dict:
        months = self.period_months
        return {
            "node": self.node_id,
            "kind": self.kind.value,
            "offense_index": self.offense_index,
            "period_months": FOREVER if months == FOREVER else str(months),
            "effects": sorted(e.value for e in self.effects),
            "issued_at": self.issued_at,
        }


class Blacklist:
    """Per-node offense history and the suspension queries over it.

    entries is the full history in the order issued; private per-node and
    per-(node, kind) indexes of the same entries answer the queries without
    scanning other nodes or other kinds.
    """

    def __init__(self) -> None:
        self.entries: list[BlacklistEntry] = []
        self._by_node: dict[str, list[BlacklistEntry]] = {}
        self._by_offense: dict[tuple[str, PerpetrationKind], list[BlacklistEntry]] = {}

    def offense_count(self, node_id: str, kind: PerpetrationKind) -> int:
        return len(self._by_offense.get((node_id, kind), ()))

    def slash(self, node_id: str, kind: PerpetrationKind, now: int) -> BlacklistEntry:
        index = self.offense_count(node_id, kind)
        months, seconds = offense_term(kind, min(index, len(SCALING_LADDER_MONTHS)))
        entry = BlacklistEntry(
            node_id=node_id,
            kind=kind,
            offense_index=index,
            period_months=months,
            effects=PERPETRATION_TABLE[kind].effects,
            issued_at=now,
            ends_at=None if seconds is None else now + seconds,
        )
        self.entries.append(entry)
        self._by_node.setdefault(node_id, []).append(entry)
        self._by_offense.setdefault((node_id, kind), []).append(entry)
        return entry

    def is_blacklisted(self, node_id: str, now: int) -> bool:
        return any(e.covers(now) for e in self._by_node.get(node_id, ()))

    def fees_stopped(self, node_id: str, now: int) -> bool:
        return any(
            e.covers(now) and Effect.FeesStopped in e.effects  # covers first: hashing an Enum is slow
            for e in self._by_node.get(node_id, ())
        )


def apply_effects(entry: BlacklistEntry, governors: dict) -> None:
    """Nullify the offender's devotion when the entry carries that effect.

    governors maps node id to a record with governing_since and
    formation_participant. The other effects need no push: authoring and
    the fee stream ask the Blacklist directly.
    """
    if Effect.DevotionNullified not in entry.effects:
        return
    record = governors.get(entry.node_id)
    if record is not None:
        record.governing_since = entry.issued_at
        record.formation_participant = False
