"""Perpetration classification and the blacklist ladder.

Each offense kind carries a severity, a base blacklisting period, whether
repeat offenses escalate, and side effects on the node's standing.
Escalating kinds start at their base period's rung on the shared ladder
and climb one rung per repeat of the same kind; past the last rung is
forever. The table and the ladder are read at import from
bionode/data/slashing_table.json, and each row's terms are built then: one
(months, seconds) per repeat, the last holding for every later one, so a
slash reads its term by index. An unknown kind or effect, an escalating
base off the ladder, or a period that is not a whole number of seconds
(a month is 30.44 days) stops the import.

An entry's effects are read, never pushed from here: exclusion and stopped
fees are Blacklist queries, and DevotionNullified is applied by the Vortex,
which owns the governor records (Vortex.nullify_devotion).
"""

from __future__ import annotations

import json
from collections import Counter
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
    terms: tuple[tuple[object, int | None], ...]  # (months or FOREVER, seconds or None) per repeat


def _term(months) -> tuple[object, int | None]:
    if months == FOREVER:
        return FOREVER, None
    seconds = months * MONTH_SECONDS
    if seconds.denominator != 1:
        raise ValueError(f"period {months} months is not a whole second count")
    return months, seconds.numerator


def _perpetration(row: dict) -> Perpetration:
    """A table row, its terms climbing the ladder from the base rung when it escalates."""
    base, scalable = Fraction(row["base_period_months"]), row["scalable"]
    if scalable and base not in SCALING_LADDER_MONTHS:
        raise ValueError(f"{row['kind']}: base period {base} months is not on the ladder")
    months = (*SCALING_LADDER_MONTHS[SCALING_LADDER_MONTHS.index(base):], FOREVER) if scalable else (base,)
    return Perpetration(PerpetrationKind(row["kind"]), row["severity"], base, scalable,
                        frozenset(map(Effect, row["effects"])), tuple(map(_term, months)))


_DOC = json.loads(resources.files("bionode.data").joinpath("slashing_table.json").read_text())
# the file's ladder ends at "forever", which every escalating row's terms end at
SCALING_LADDER_MONTHS: tuple[Fraction, ...] = tuple(map(Fraction, _DOC["ladder_months"][:-1]))
PERPETRATION_TABLE: dict[PerpetrationKind, Perpetration] = {
    p.kind: p for p in map(_perpetration, _DOC["perpetrations"])
}


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

    entries is the full history in the order issued; a private per-node index
    of the same entries answers the queries without scanning other nodes, and
    a per-(node, kind) count gives each new offense its index.
    """

    def __init__(self) -> None:
        self.entries: list[BlacklistEntry] = []
        self._by_node: dict[str, list[BlacklistEntry]] = {}
        self._offenses: Counter[tuple[str, PerpetrationKind]] = Counter()

    def slash(self, node_id: str, kind: PerpetrationKind, now: int) -> BlacklistEntry:
        spec = PERPETRATION_TABLE[kind]
        index = self._offenses[node_id, kind]
        self._offenses[node_id, kind] = index + 1
        months, seconds = spec.terms[min(index, len(spec.terms) - 1)]
        entry = BlacklistEntry(node_id=node_id, kind=kind, offense_index=index, period_months=months,
                               effects=spec.effects, issued_at=now, ends_at=None if seconds is None else now + seconds)
        self.entries.append(entry)
        self._by_node.setdefault(node_id, []).append(entry)
        return entry

    def is_blacklisted(self, node_id: str, now: int) -> bool:
        return any(e.covers(now) for e in self._by_node.get(node_id, ()))

    def fees_stopped(self, node_id: str, now: int) -> bool:
        return any(
            e.covers(now) and Effect.FeesStopped in e.effects  # covers first: hashing an Enum is slow
            for e in self._by_node.get(node_id, ())
        )
