"""Rebase arithmetic: the three-period worked example plus conservation,
proportionality, and composition properties on randomized ledgers, an
oracle on exact fractions, and a byte pin of a rebase at scale."""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, currently_in_test_context, event, given, settings
from hypothesis import strategies as st

from bionode.fath import (
    LedgerSnapshot,
    PeriodStats,
    RatioBelowNegativeOne,
    RebalanceOutcome,
    UndefinedBaseline,
    compute_ratio,
    rebalance,
    run_period,
)

GOLDEN = Path(__file__).parent / "golden"


def fraction_rebalance(ledger, ratio):
    """Oracle: largest-remainder rebalance on one Fraction per account."""
    ratio = Fraction(ratio)
    factor = 1 + ratio
    exact_supply = ledger.total_supply * factor
    new_supply = (2 * exact_supply.numerator + exact_supply.denominator) // (
        2 * exact_supply.denominator
    )
    floors, remainders = {}, []
    for acct, bal in ledger.balances.items():
        exact = bal * factor
        fl = exact.numerator // exact.denominator
        floors[acct] = fl
        remainders.append((exact - fl, acct))
    remainders.sort(key=lambda pair: (-pair[0], pair[1]))
    for _, acct in remainders[: new_supply - sum(floors.values())]:
        floors[acct] += 1
    kind = "inFath" if ratio > 0 else "outFath" if ratio < 0 else "none"
    outcome = RebalanceOutcome(
        kind=kind, ratio=ratio, new_supply=new_supply,
        old_balances=ledger.balances, new_balances=floors,
    )
    return LedgerSnapshot(balances=floors, total_supply=new_supply), outcome


class TestRatio:
    def test_doubling_fees_is_plus_100_percent(self):
        assert compute_ratio(PeriodStats(1_000_000), PeriodStats(2_000_000)) == 1

    def test_quarter_drop_is_minus_25_percent(self):
        assert compute_ratio(PeriodStats(2_000_000), PeriodStats(1_500_000)) == Fraction(-1, 4)

    def test_flat_fees(self):
        assert compute_ratio(PeriodStats(5), PeriodStats(5)) == 0

    def test_zero_baseline(self):
        with pytest.raises(UndefinedBaseline):
            compute_ratio(PeriodStats(0), PeriodStats(10))


class TestRebalance:
    def test_infath_worked_example(self):
        ledger = LedgerSnapshot(balances={"you": 1_000, "rest": 9_999_000})
        new, outcome = rebalance(ledger, Fraction(1))
        assert outcome.kind == "inFath"
        assert new.total_supply == 20_000_000
        assert new.balances["you"] == 2_000

    def test_outfath_worked_example(self):
        ledger = LedgerSnapshot(balances={"you": 2_000, "rest": 19_998_000})
        new, outcome = rebalance(ledger, Fraction(-1, 4))
        assert outcome.kind == "outFath"
        assert new.total_supply == 15_000_000
        assert new.balances["you"] == 1_500

    def test_zero_ratio_identity(self):
        ledger = LedgerSnapshot(balances={"a": 7, "b": 13})
        new, outcome = rebalance(ledger, Fraction(0))
        assert new.balances == ledger.balances
        assert outcome.kind == "none"
        assert all(d == 0 for d in outcome.per_account_deltas.values())

    def test_stated_supply_of_zero_is_checked(self):
        with pytest.raises(ValueError, match="do not sum"):
            LedgerSnapshot(balances={"a": 5}, total_supply=0)
        with pytest.raises(ValueError, match="do not sum"):
            LedgerSnapshot(balances={"a": 5}, total_supply=4)
        assert LedgerSnapshot(balances={"a": 0}, total_supply=0).total_supply == 0
        assert LedgerSnapshot(balances={"a": 5}).total_supply == 5

    def test_negative_balance_is_refused(self):
        # checked before the sum: these balances do sum to the stated supply
        with pytest.raises(ValueError, match="negative balance"):
            LedgerSnapshot(balances={"a": 6, "b": -1}, total_supply=5)
        assert LedgerSnapshot(balances={}).total_supply == 0

    @pytest.mark.parametrize("change", [
        lambda bal: bal.update(b=bal["b"] + 1),  # one balance raised
        lambda bal: bal.update(b=-1),  # one made negative
        lambda bal: bal.update(d=50),  # one account added
    ], ids=["raised", "negative", "added"])
    def test_ledger_changed_after_it_was_built_is_refused(self, change):
        # balances is a mutable dict: the result's own check is what
        # catches a ledger edited after its snapshot was validated
        ledger = LedgerSnapshot(balances={"a": 100, "b": 200, "c": 300, "e": 7})
        change(ledger.balances)
        with pytest.raises(ValueError):
            rebalance(ledger, Fraction(7, 100))

    def test_ratio_below_minus_one(self):
        with pytest.raises(RatioBelowNegativeOne):
            rebalance(LedgerSnapshot(balances={"a": 1}), Fraction(-3, 2))

    def test_full_worked_scenario(self):
        ledger = LedgerSnapshot(balances={"you": 1_000, "rest": 9_999_000})
        fees = [1_000_000, 2_000_000, 1_500_000]
        wallet_path = [ledger.balances["you"]]
        supply_path = [ledger.total_supply]
        for year in (1, 2):
            ledger, _ = run_period(
                ledger,
                PeriodStats(fees[year - 1], year - 1),
                PeriodStats(fees[year], year),
            )
            wallet_path.append(ledger.balances["you"])
            supply_path.append(ledger.total_supply)
        assert supply_path == [10_000_000, 20_000_000, 15_000_000]
        assert wallet_path == [1_000, 2_000, 1_500]

    def test_zero_fee_baseline_no_rebalance(self):
        ledger = LedgerSnapshot(balances={"a": 10})
        new, outcome = run_period(ledger, PeriodStats(0), PeriodStats(100))
        assert outcome.kind == "none"
        assert new.balances == ledger.balances
        assert outcome.per_account_deltas == {"a": 0}

    def test_single_account_keeps_everything(self):
        ledger = LedgerSnapshot(balances={"only": 12_345})
        new, _ = rebalance(ledger, Fraction(7, 13))
        assert new.balances["only"] == new.total_supply

    def test_outcome_record_shape(self):
        ledger = LedgerSnapshot(balances={"a": 100})
        _, outcome = rebalance(ledger, Fraction(1, 2))
        record = outcome.to_record(3)
        assert record == {
            "period": 3,
            "kind": "inFath",
            "ratio_num": 1,
            "ratio_den": 2,
            "new_supply": 150,
        }


ledgers = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.integers(min_value=0, max_value=10**12),
    min_size=1,
    max_size=20,
)
ratios = st.fractions(
    min_value=Fraction(-99, 100), max_value=Fraction(10), max_denominator=997
)


def cut_ratios(max_den: int, min_factor: Fraction = Fraction(1, 100), max_factor: Fraction = Fraction(11)):
    """Ratios whose 1 + ratio = k/den lies in [min_factor, max_factor], with
    den in 2..max_den and k not a multiple of den: a whole factor leaves no
    remainder at all."""
    return st.integers(min_value=2, max_value=max_den).flatmap(
        lambda den: st.integers(min_value=math.ceil(min_factor * den), max_value=math.floor(max_factor * den))
        .filter(lambda k: k % den)
        .map(lambda k: Fraction(k, den) - 1)
    )


@st.composite
def units_over(draw, balances, ratios):
    """A ledger from balances and a ratio from ratios (1 + ratio not whole) that
    leave units over for the cut: one drawn account's balance is raised by the
    least amount that gives it a drawn remainder b * num mod den of at least
    den / 2, so the remainders sum to at least half a unit."""
    ratio = draw(ratios)
    balances = dict(draw(balances))
    num, den = (1 + ratio).as_integer_ratio()
    acct = draw(st.sampled_from(sorted(balances)))
    rem = draw(st.integers(min_value=(den + 1) // 2, max_value=den - 1))
    balances[acct] += (rem - balances[acct] * num) * pow(num, -1, den) % den
    return balances, ratio


class TestMatchesFractionOracle:
    """Integer floors and remainders against one denominator, and the
    remainder cut, give the Fraction results."""

    @staticmethod
    def assert_same(balances, ratio):
        ledger = LedgerSnapshot(balances=balances)
        new, outcome = rebalance(ledger, ratio)
        want, want_outcome = fraction_rebalance(ledger, ratio)
        if currently_in_test_context():  # --hypothesis-show-statistics gives each kind's share
            num, den = (1 + Fraction(ratio)).as_integer_ratio()
            if want.total_supply == sum(b * num // den for b in balances.values()):
                event("no leftover, no cut")
            else:  # a remainder takes at most den values: no more than the accounts when den <= n
                event("den <= accounts" if den <= len(balances) else "den > accounts")
        assert new.balances == want.balances
        assert list(new.balances) == list(want.balances)
        assert list(outcome.per_account_deltas) == list(balances)
        assert new.total_supply == want.total_supply
        assert outcome == want_outcome
        # == compares kind, ratio and supply; the deltas are derived on read
        assert outcome.per_account_deltas == want_outcome.per_account_deltas
        return new, outcome

    @given(case=units_over(ledgers, cut_ratios(997)))
    @settings(max_examples=300, deadline=None)
    def test_random_ledgers(self, case):
        self.assert_same(*case)

    @given(
        case=units_over(
            ledgers, cut_ratios(10**15, min_factor=Fraction(1, 10**12), max_factor=Fraction(10**6 + 1))
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_large_denominators(self, case):
        self.assert_same(*case)

    @given(
        names=st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            min_size=2, max_size=40, unique=True,
        ),
        balance=st.integers(min_value=0, max_value=10**9),
        odd=st.integers(min_value=0, max_value=10**9),
        ratio=ratios,
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_balances_tie_break_by_id(self, names, balance, odd, ratio):
        # all but the last account share one balance, so every remainder
        # but one ties and the extra units go by account id
        balances = {name: balance for name in names}
        balances[names[-1]] = odd
        self.assert_same(balances, ratio)

    def test_ties_go_to_smallest_ids(self):
        ledger = LedgerSnapshot(balances={"c": 1, "a": 1, "b": 1, "d": 1})
        new, _ = rebalance(ledger, Fraction(1, 2))
        assert new.balances == {"c": 1, "a": 2, "b": 2, "d": 1}

    @given(
        names=st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            min_size=3, max_size=40, unique=True,
        ),
        others=st.lists(st.integers(min_value=0, max_value=10**9), max_size=8),
        ratio=st.one_of(cut_ratios(8), cut_ratios(997)),
        pick=st.integers(min_value=0),
        lift=st.integers(min_value=0, max_value=10**6),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_tie_straddles_the_cut_in_shuffled_order(self, names, others, ratio, pick, lift, order):
        # most accounts share one balance, so one remainder ties many ways; that
        # balance is built so that some of the tied accounts get a leftover unit
        # and some do not
        others = others[: len(names) - 2]
        num, den = (1 + ratio).as_integer_ratio()
        rems = [b * num % den for b in others]
        shared = len(names) - len(others)

        def straddles(cut):  # the units over, rounded half up, end inside the tie at cut
            above = sum(r > cut for r in rems)
            over = (2 * (sum(rems) + shared * cut) + den) // (2 * den)
            return above < over < above + shared + rems.count(cut)

        cuts = [cut for cut in range(1, den) if straddles(cut)]
        assume(cuts)
        cut = cuts[pick % len(cuts)]
        tied_balance = cut * pow(num, -1, den) % den + lift * den  # its remainder is cut
        order.shuffle(names)
        balances = dict(zip(names, others + [tied_balance] * shared))
        new, _ = fraction_rebalance(LedgerSnapshot(balances=balances), ratio)
        tied = [a for a, b in balances.items() if b * num % den == cut]
        awarded = [a for a in tied if new.balances[a] > balances[a] * (1 + ratio)]
        assert 0 < len(awarded) < len(tied)
        assert sorted(awarded) == sorted(tied)[: len(awarded)]
        self.assert_same(balances, ratio)

    @given(
        names=st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            min_size=8, max_size=60, unique=True,
        ),
        shared=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=4),
        ratio=cut_ratios(8),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_few_remainder_values(self, names, shared, ratio, rng):
        # den <= 8 <= n, so a remainder takes at most den values and many
        # accounts tie at each; most balances share a few values too, so
        # ties straddle the cut
        balances = {
            name: rng.choice(shared) if rng.random() < 0.7 else rng.randrange(10**9)
            for name in names
        }
        self.assert_same(balances, ratio)

    @pytest.mark.parametrize("n", [2, 3, 7, 30])
    @pytest.mark.parametrize("extra", [0, 1], ids=["den=n", "den=n+1"])
    @pytest.mark.parametrize("whole", [0, 1], ids=["r=1/den", "r=1+1/den"])
    def test_den_at_and_just_above_the_account_count(self, n, extra, whole):
        # den == n allows as many remainder values as accounts, den == n + 1
        # one more; every case here leaves units over, so a cut is found
        rng = random.Random(f"boundary:{n}")
        ids = [f"acct-{k:06d}" for k in rng.sample(range(10**6), n)]
        balances = {acct: rng.choice((1, 2, 3, 10**6 + 1, rng.randrange(10**9))) for acct in ids}
        den = n + extra
        ratio = Fraction(1, den) + whole
        assert (1 + ratio).denominator == den
        self.assert_same(balances, ratio)

    @pytest.mark.parametrize(
        "balances, ratio",
        [
            ({"b": 1, "a": 1, "c": 1}, Fraction(1, 10)),  # 3.3 rounds to 3
            ({"x": 5, "y": 15}, Fraction(1, 5)),  # every remainder is 0
            ({"y": 30, "x": 12, "z": 0}, Fraction(-5, 6)),  # den 6 divides every balance
            ({"b": 4, "a": 7, "c": 0}, Fraction(2)),  # an integer ratio: den == 1
            ({"a": 0, "b": 0}, Fraction(3, 7)),
        ],
    )
    def test_nothing_left_over(self, balances, ratio):
        new, _ = self.assert_same(balances, ratio)
        assert new.balances == {
            acct: bal * (1 + ratio) // 1 for acct, bal in balances.items()
        }

    @pytest.mark.parametrize(
        "balances, ratio",
        [
            ({"b": 1, "z": 0, "a": 1, "c": 1}, Fraction(9, 10)),  # 5.7 rounds to 6
            ({"q": 2, "p": 3, "r": 10}, Fraction(-1, 2)),  # 7.5 rounds half up to 8
            ({"m": 1, "k": 0, "n": 3}, Fraction(999, 1000)),  # 7.996 rounds to 8
        ],
    )
    def test_every_non_zero_remainder_gets_a_unit(self, balances, ratio):
        new, _ = self.assert_same(balances, ratio)
        for acct, bal in balances.items():
            exact = bal * (1 + ratio)
            assert new.balances[acct] == -(-exact // 1)  # the ceiling

    @given(
        case=units_over(
            st.dictionaries(
                st.text(alphabet="abcdefgh", min_size=1, max_size=3),
                st.sampled_from([0, 0, 0, 1, 2, 3, 10**9]),
                min_size=2,  # units_over raises one account, and may leave the other at 0
                max_size=20,
            ),
            cut_ratios(997),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_balances(self, case):
        balances, ratio = case
        new, _ = self.assert_same(balances, ratio)
        assert all(new.balances[a] == 0 for a, b in balances.items() if b == 0)

    @given(
        b=st.integers(min_value=0, max_value=10**15),
        num=st.integers(min_value=1, max_value=10**13),
        den_cut=st.integers(min_value=1, max_value=10**13).flatmap(
            lambda den: st.tuples(st.just(den), st.integers(min_value=0, max_value=den - 1))
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_offset_floor_carries_exactly_above_the_cut(self, b, num, den_cut):
        # the one floor per account that rebalance takes in place of the
        # floor, the remainder and the compare with the cut
        den, cut = den_cut
        assert (b * num + den - 1 - cut) // den == b * num // den + (b * num % den > cut)

    def test_empty_ledger(self):
        new, outcome = self.assert_same({}, Fraction(7, 100))
        assert new.balances == {} and new.total_supply == 0
        assert outcome.per_account_deltas == {}


class TestProperties:
    @given(balances=ledgers, ratio=ratios)
    @settings(max_examples=300, deadline=None)
    def test_conservation(self, balances, ratio):
        ledger = LedgerSnapshot(balances=balances)
        new, outcome = rebalance(ledger, ratio)
        assert sum(new.balances.values()) == new.total_supply == outcome.new_supply

    @given(balances=ledgers, ratio=ratios)
    @settings(max_examples=300, deadline=None)
    def test_proportionality_within_one_unit(self, balances, ratio):
        ledger = LedgerSnapshot(balances=balances)
        new, _ = rebalance(ledger, ratio)
        for acct, bal in ledger.balances.items():
            exact = bal * (1 + ratio)
            assert abs(Fraction(new.balances[acct]) - exact) < 1

    @given(
        balances=ledgers,
        ratio=st.fractions(
            min_value=Fraction(1, 997), max_value=Fraction(10), max_denominator=997
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition_round_trip(self, balances, ratio):
        """inFath by r then outFath by r/(1+r) lands within 1 unit of start.

        (Only stated for the mint-first direction: burning first amplifies
        the intermediate rounding by 1/(1+r) > 1.)
        """
        ledger = LedgerSnapshot(balances=balances)
        up, _ = rebalance(ledger, ratio)
        down, _ = rebalance(up, -ratio / (1 + ratio))
        for acct, bal in ledger.balances.items():
            assert abs(down.balances[acct] - bal) <= 1

    @given(balances=ledgers, ratio=ratios)
    @settings(max_examples=200, deadline=None)
    def test_share_preservation(self, balances, ratio):
        ledger = LedgerSnapshot(balances=balances)
        new, _ = rebalance(ledger, ratio)
        n = len(ledger.balances)
        for acct, bal in ledger.balances.items():
            before = Fraction(bal, ledger.total_supply) if ledger.total_supply else 0
            after = Fraction(new.balances[acct], new.total_supply) if new.total_supply else 0
            if ledger.total_supply and new.total_supply:
                assert abs(after - before) <= Fraction(n, new.total_supply)


def rebase_steps_bytes() -> bytes:
    """A seeded 20,000-account ledger, ids in random order and a third of
    the balances drawn from a few shared values (so remainders tie across
    the cut), rebased by 7/100, then -7/107 (den < n, so remainders repeat),
    then a ratio over a 13-digit denominator (remainders all but distinct);
    each step's ordered balances and deltas, as JSON lines."""
    rng = random.Random("fath-rebase-golden")
    ids = [f"acct-{n:08d}" for n in rng.sample(range(10**8), 20_000)]
    shared = (0, 1, 3, 100, 10**6 + 7)
    ledger = LedgerSnapshot(balances={
        acct: rng.choice(shared) if rng.random() < 1 / 3 else rng.randrange(10**9)
        for acct in ids
    })
    lines = []
    for ratio in (Fraction(7, 100), Fraction(-7, 107), Fraction(123_456_789_013, 10**12 + 39)):
        ledger, outcome = rebalance(ledger, ratio)
        lines.append(json.dumps([list(ledger.balances.items()),
                                 list(outcome.per_account_deltas.items())]))
    return "\n".join(lines).encode()


class TestGoldenRebase:
    def test_rebase_at_scale_matches_golden_hash(self):
        """Every balance and delta of three rebases over 20,000 unsorted
        accounts is pinned under tests/golden/."""
        expected = (GOLDEN / "fath_rebase.sha256").read_text().strip()
        assert hashlib.sha256(rebase_steps_bytes()).hexdigest() == expected
