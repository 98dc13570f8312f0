"""Fath: proportional mint/burn driven by period-over-period fee totals.

The network's value metric per period is the total of fees paid (GNetP).
When it rises by some fraction r between two periods, supply is minted by
the same fraction and handed to every balance proportionally (inFath);
when it falls, supply is burned proportionally (outFath). Balances are
integers in smallest units and the ratio is an exact rational. The
scale factor 1 + r is split once into numerator and denominator, so the
per-account scaling is an integer divmod against that one denominator;
largest-remainder rounding then makes the new balances sum to the new
supply exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class UndefinedBaseline(Exception):
    """First period had zero fees: the ratio has no denominator."""


class RatioBelowNegativeOne(Exception):
    pass


@dataclass(frozen=True)
class PeriodStats:
    fees_paid: int
    period_index: int = 0

    def __post_init__(self):
        if self.fees_paid < 0:
            raise ValueError("fees cannot be negative")


@dataclass
class LedgerSnapshot:
    balances: dict[str, int]
    total_supply: int = field(default=0)

    def __post_init__(self):
        total = 0
        for b in self.balances.values():
            if b < 0:
                raise ValueError("negative balance")
            total += b
        if self.total_supply == 0:
            self.total_supply = total
        if total != self.total_supply:
            raise ValueError("balances do not sum to total supply")


@dataclass(frozen=True)
class RebalanceOutcome:
    kind: str  # "inFath" | "outFath" | "none"
    ratio: Fraction
    new_supply: int
    per_account_deltas: dict[str, int]

    def to_record(self, period: int) -> dict:
        return {
            "period": period,
            "kind": self.kind,
            "ratio_num": self.ratio.numerator,
            "ratio_den": self.ratio.denominator,
            "new_supply": self.new_supply,
        }


def compute_ratio(prev: PeriodStats, curr: PeriodStats) -> Fraction:
    """Relative fee change (curr - prev) / prev as an exact rational."""
    if prev.fees_paid == 0:
        raise UndefinedBaseline("no fees in the baseline period")
    return Fraction(curr.fees_paid - prev.fees_paid, prev.fees_paid)


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def rebalance(
    ledger: LedgerSnapshot, ratio: Fraction
) -> tuple[LedgerSnapshot, RebalanceOutcome]:
    """Scale every balance by (1 + ratio), conserving the new supply exactly.

    Each account receives floor(balance * (1+ratio)); the units still
    missing from the rounded new supply go to the accounts with the
    largest fractional remainders (ties broken by account id), so no dust
    is created or lost and every account stays within one smallest unit
    of its exact share.
    """
    ratio = Fraction(ratio)
    if ratio <= -1:
        raise RatioBelowNegativeOne(f"ratio {ratio} would wipe out the ledger")
    factor = 1 + ratio
    num, den = factor.numerator, factor.denominator
    new_supply = _round_half_up(ledger.total_supply * factor)

    # entries are (-rem, acct): every remainder is over the same den, so
    # ascending order is largest fractional part first, ties by account id
    floors: dict[str, int] = {}
    remainders: list[tuple[int, str]] = []
    for acct, bal in ledger.balances.items():
        floors[acct], rem = divmod(bal * num, den)
        remainders.append((-rem, acct))

    leftover = new_supply - sum(floors.values())
    # 0 <= leftover <= number of accounts by construction
    remainders.sort()
    for _, acct in remainders[:leftover]:
        floors[acct] += 1

    deltas = {acct: floors[acct] - bal for acct, bal in ledger.balances.items()}
    kind = "inFath" if ratio > 0 else "outFath" if ratio < 0 else "none"
    outcome = RebalanceOutcome(
        kind=kind, ratio=ratio, new_supply=new_supply, per_account_deltas=deltas
    )
    return LedgerSnapshot(balances=floors, total_supply=new_supply), outcome


def run_period(
    ledger: LedgerSnapshot, prev_stats: PeriodStats, curr_stats: PeriodStats
) -> tuple[LedgerSnapshot, RebalanceOutcome]:
    """Compare two periods and apply the implied rebalance, if any."""
    try:
        ratio = compute_ratio(prev_stats, curr_stats)
    except UndefinedBaseline:
        ratio = 0
    if ratio == 0:
        deltas = dict.fromkeys(ledger.balances, 0)
        return ledger, RebalanceOutcome("none", Fraction(0), ledger.total_supply, deltas)
    return rebalance(ledger, ratio)
