"""Perpetration classification and the blacklist ladder.

Each offense kind carries a severity, a base blacklisting period, whether
repeat offenses escalate, and side effects on the node's standing.
Escalating kinds start at their base period's rung on the shared ladder
(0.5, 1, 2, 3, 6, 12, 24, 36, 120, 240 months, forever) and climb one
rung per repeat of the same kind; an index past the end means forever.

A month is 30.44 days of simulated time, so periods are exact integer
second counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction


DAY_SECONDS = 86_400
MONTH_SECONDS = 2_630_016  # 30.44 days
FOREVER = "forever"

SCALING_LADDER_MONTHS: tuple[Fraction, ...] = (
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(6),
    Fraction(12),
    Fraction(24),
    Fraction(36),
    Fraction(120),
    Fraction(240),
)


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


PERPETRATION_TABLE: dict[PerpetrationKind, Perpetration] = {
    p.kind: p
    for p in (
        Perpetration(
            PerpetrationKind.MissedMonthlyVerification,
            severity=0,
            base_period_months=Fraction(1, 2),
            scalable=False,
            effects=frozenset({Effect.ExcludedFromValidators, Effect.FeesStopped}),
        ),
        Perpetration(
            PerpetrationKind.MismatchedProposalType,
            severity=1,
            base_period_months=Fraction(1),
            scalable=False,
            effects=frozenset(),
        ),
        Perpetration(
            PerpetrationKind.FailedFormationDelivery,
            severity=2,
            base_period_months=Fraction(1),
            scalable=True,
            effects=frozenset(),
        ),
        Perpetration(
            PerpetrationKind.Offline48h,
            severity=2,
            base_period_months=Fraction(1, 2),
            scalable=True,
            effects=frozenset({Effect.Deactivated, Effect.FeesStopped}),
        ),
        Perpetration(
            PerpetrationKind.MismatchedProposalTypeNoRight,
            severity=3,
            base_period_months=Fraction(1),
            scalable=True,
            effects=frozenset({Effect.Deactivated, Effect.FeesStopped}),
        ),
        Perpetration(
            PerpetrationKind.UptimeBelow91,
            severity=3,
            base_period_months=Fraction(1),
            scalable=True,
            effects=frozenset(),
        ),
        Perpetration(
            PerpetrationKind.FalseTransaction,
            severity=5,
            base_period_months=Fraction(120),
            scalable=True,
            effects=frozenset(
                {Effect.Deactivated, Effect.FeesStopped, Effect.DevotionNullified}
            ),
        ),
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


@dataclass(frozen=True)
class BlacklistEntry:
    node_id: str
    kind: PerpetrationKind
    offense_index: int
    period_months: object  # Fraction or FOREVER
    effects: frozenset[Effect]
    issued_at: int  # seconds of simulated time
    ends_at: int | None = field(init=False)  # first second not covered; None: forever

    def __post_init__(self) -> None:
        months = self.period_months
        ends_at = None if months == FOREVER else self.issued_at + months_to_seconds(months)
        object.__setattr__(self, "ends_at", ends_at)

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

    entries is the full history in the order issued; a private per-node index
    of the same entries answers the queries without scanning other nodes.
    """

    def __init__(self) -> None:
        self.entries: list[BlacklistEntry] = []
        self._by_node: dict[str, list[BlacklistEntry]] = {}

    def offense_count(self, node_id: str, kind: PerpetrationKind) -> int:
        return sum(1 for e in self._by_node.get(node_id, ()) if e.kind == kind)

    def slash(self, node_id: str, kind: PerpetrationKind, now: int) -> BlacklistEntry:
        spec = PERPETRATION_TABLE[kind]
        index = self.offense_count(node_id, kind)
        entry = BlacklistEntry(
            node_id=node_id,
            kind=kind,
            offense_index=index,
            period_months=period_for(kind, index),
            effects=spec.effects,
            issued_at=now,
        )
        self.entries.append(entry)
        self._by_node.setdefault(node_id, []).append(entry)
        return entry

    def is_blacklisted(self, node_id: str, now: int) -> bool:
        return any(e.covers(now) for e in self._by_node.get(node_id, ()))

    def fees_stopped(self, node_id: str, now: int) -> bool:
        return any(
            Effect.FeesStopped in e.effects and e.covers(now)
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
