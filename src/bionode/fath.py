"""Fath: proportional mint/burn driven by period-over-period fee totals.

The network's value metric per period is the total of fees paid (GNetP).
When it rises by some fraction r between two periods, supply is minted by
the same fraction and handed to every balance proportionally (inFath);
when it falls, supply is burned proportionally (outFath). Balances are
integers in smallest units; with 1 + r = num/den, largest-remainder
rounding keeps the new supply exact. With the cut the leftover-th largest
remainder b*num mod den, one floor per account, (b*num + den-1-cut) // den,
carries exactly when the remainder is above the cut, and the units still
owed go to those tied at it, smallest id first. The cut is found by
counting the remainders and walking their distinct values from the
largest down; a remainder lies in range(den), so a small den leaves few
values to walk. Deltas are derived on read.
"""

from __future__ import annotations

from collections import Counter
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
    old_balances: dict[str, int] = field(compare=False, repr=False)
    new_balances: dict[str, int] = field(compare=False, repr=False)

    @property
    def per_account_deltas(self) -> dict[str, int]:
        """Each account's change, in the old ledger's order; built on each read."""
        return {a: self.new_balances[a] - b for a, b in self.old_balances.items()}

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


def rebalance(
    ledger: LedgerSnapshot, ratio: Fraction
) -> tuple[LedgerSnapshot, RebalanceOutcome]:
    """Scale every balance by (1 + ratio), conserving the new supply exactly.

    Each account receives floor(balance * (1+ratio)), plus one unit if its
    remainder is above the cut or, smallest id first, is tied at it while
    leftover units remain (see the module docstring). No dust is created or
    lost, and every account stays within one smallest unit of its exact
    share. The outcome derives the deltas from the old and new balance maps
    on each read.
    """
    ratio = Fraction(ratio)
    if ratio <= -1:
        raise RatioBelowNegativeOne(f"ratio {ratio} would wipe out the ledger")
    num, den = (1 + ratio).as_integer_ratio()
    new_supply = (2 * ledger.total_supply * num + den) // (2 * den)  # rounded half up

    old = ledger.balances
    rems = [b * num % den for b in old.values()]
    # the floors sum to (total * num - sum(rems)) / den exactly
    leftover = new_supply - (ledger.total_supply * num - sum(rems)) // den
    # 0 <= leftover <= the number of non-zero remainders, so the cut is
    # non-zero; with nothing left over no remainder is above den - 1
    cut, owed = den - 1, leftover  # owed: units left for those tied at the cut
    if leftover:
        counts = Counter(rems)
        for cut in sorted(counts, reverse=True):  # down until the leftover is placed
            if owed <= counts[cut]:
                break
            owed -= counts[cut]
        del counts  # not held while the new balances are built (peak memory)
    offset = den - 1 - cut  # carries exactly when rem > cut
    balances = {acct: (b * num + offset) // den for acct, b in old.items()}
    if owed:
        tied = sorted(acct for acct, rem in zip(old, rems) if rem == cut)
        for acct in tied[:owed]:
            balances[acct] += 1

    kind = "inFath" if ratio > 0 else "outFath" if ratio < 0 else "none"
    outcome = RebalanceOutcome(kind, ratio, new_supply, old, balances)
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
        old = ledger.balances
        return ledger, RebalanceOutcome("none", Fraction(0), ledger.total_supply, old, old)
    return rebalance(ledger, ratio)
