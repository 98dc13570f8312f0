"""Fath: proportional mint/burn driven by period-over-period fee totals.

The network's value metric per period is the total of fees paid (GNetP).
When it rises by some fraction r between two periods, supply is minted by
the same fraction and handed to every balance proportionally (inFath);
when it falls, supply is burned proportionally (outFath). Balances are
integers in smallest units and the ratio is an exact rational. The
scale factor 1 + r is split once into numerator and denominator, so each
account's scaled balance is an integer floor and remainder against that
one denominator. Largest-remainder rounding then makes the new balances
sum to the new supply exactly: the units the floors leave over go to the
accounts above the remainder cut (the leftover-th largest remainder) and
then to the accounts tied at it, smallest id first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
    total_supply: int | None = None  # None: the sum of the balances

    def __post_init__(self):
        if min(self.balances.values(), default=0) < 0:
            raise ValueError("negative balance")
        total = sum(self.balances.values())
        if self.total_supply is None:
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

    Each account receives floor(balance * (1+ratio)). The units still
    missing from the rounded new supply go one each to the accounts with
    the largest fractional remainders, ties broken by account id: every
    account above the cut (the leftover-th largest remainder) gets one,
    and the rest go to the accounts whose remainder equals the cut,
    smallest id first. So no dust is created or lost, and every account
    stays within one smallest unit of its exact share.
    """
    ratio = Fraction(ratio)
    if ratio <= -1:
        raise RatioBelowNegativeOne(f"ratio {ratio} would wipe out the ledger")
    factor = 1 + ratio
    num, den = factor.numerator, factor.denominator
    new_supply = _round_half_up(ledger.total_supply * factor)

    old = ledger.balances
    floors = [b * num // den for b in old.values()]
    rems = [b * num % den for b in old.values()]
    leftover = new_supply - sum(floors)
    # 0 <= leftover <= the number of non-zero remainders, so the cut is
    # non-zero; with nothing left over it is den, above every remainder,
    # so no account is above or tied at it
    cut = sorted(rems)[-leftover] if leftover else den
    balances = dict(zip(old, map(operator.add, floors, map(cut.__lt__, rems))))
    tied = sorted(acct for acct, rem in zip(old, rems) if rem == cut)
    for acct in tied[: new_supply - sum(balances.values())]:
        balances[acct] += 1

    deltas = dict(zip(old, map(operator.sub, balances.values(), old.values())))
    kind = "inFath" if ratio > 0 else "outFath" if ratio < 0 else "none"
    outcome = RebalanceOutcome(
        kind=kind, ratio=ratio, new_supply=new_supply, per_account_deltas=deltas
    )
    return LedgerSnapshot(balances=balances, total_supply=new_supply), outcome


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
