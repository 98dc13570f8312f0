"""Perpetration table fidelity, ladder progression, date arithmetic."""

import json
from fractions import Fraction
from pathlib import Path

from bionode.slashing import (
    DAY_SECONDS,
    FOREVER,
    MONTH_SECONDS,
    PERPETRATION_TABLE,
    SCALING_LADDER_MONTHS,
    Blacklist,
    Effect,
    PerpetrationKind,
    apply_effects,
    months_to_seconds,
    period_for,
    scaling_ladder,
)
from bionode.vortex import GovernorRecord

FIXTURE = Path(__file__).parent.parent / "src" / "bionode" / "data" / "slashing_table.json"


class TestLadder:
    def test_base_rung(self):
        assert scaling_ladder(0) == Fraction(1, 2)

    def test_one_year_rung(self):
        assert scaling_ladder(5) == Fraction(12)

    def test_forever(self):
        assert scaling_ladder(10) == FOREVER
        assert scaling_ladder(25) == FOREVER

    def test_monotone_non_decreasing(self):
        months = list(SCALING_LADDER_MONTHS)
        assert months == sorted(months)

    def test_full_sequence(self):
        assert [str(m) for m in SCALING_LADDER_MONTHS] == [
            "1/2", "1", "2", "3", "6", "12", "24", "36", "120", "240",
        ]


class TestTableFidelity:
    def test_golden_fixture_matches_table(self):
        doc = json.loads(FIXTURE.read_text())
        fixture_ladder = [
            FOREVER if m == "forever" else Fraction(m) for m in doc["ladder_months"]
        ]
        assert fixture_ladder[:-1] == list(SCALING_LADDER_MONTHS)
        assert fixture_ladder[-1] == FOREVER

        rows = {r["kind"]: r for r in doc["perpetrations"]}
        assert set(rows) == {k.value for k in PerpetrationKind}
        for kind, spec in PERPETRATION_TABLE.items():
            row = rows[kind.value]
            assert spec.severity == row["severity"], kind
            assert spec.base_period_months == Fraction(row["base_period_months"]), kind
            assert spec.scalable == row["scalable"], kind
            assert spec.effects == frozenset(Effect(e) for e in row["effects"]), kind

    def test_severity_levels(self):
        sev = {k.value: p.severity for k, p in PERPETRATION_TABLE.items()}
        assert sev == {
            "MissedMonthlyVerification": 0,
            "MismatchedProposalType": 1,
            "FailedFormationDelivery": 2,
            "Offline48h": 2,
            "MismatchedProposalTypeNoRight": 3,
            "UptimeBelow91": 3,
            "FalseTransaction": 5,
        }


class TestSlash:
    def test_first_offline_offense(self):
        bl = Blacklist()
        entry = bl.slash("n1", PerpetrationKind.Offline48h, now=0)
        assert entry.period_months == Fraction(1, 2)
        assert entry.effects == frozenset({Effect.Deactivated, Effect.FeesStopped})

    def test_second_offense_climbs_ladder(self):
        bl = Blacklist()
        bl.slash("n1", PerpetrationKind.Offline48h, now=0)
        entry = bl.slash("n1", PerpetrationKind.Offline48h, now=10**7)
        assert entry.period_months == Fraction(1)

    def test_progression_to_forever(self):
        bl = Blacklist()
        expected = list(SCALING_LADDER_MONTHS) + [FOREVER, FOREVER]
        for i in range(12):
            entry = bl.slash("n1", PerpetrationKind.Offline48h, now=i)
            assert entry.period_months == expected[i]

    def test_base_one_month_starts_at_second_rung(self):
        assert period_for(PerpetrationKind.UptimeBelow91, 0) == Fraction(1)
        assert period_for(PerpetrationKind.UptimeBelow91, 1) == Fraction(2)

    def test_false_transaction(self):
        bl = Blacklist()
        entry = bl.slash("n1", PerpetrationKind.FalseTransaction, now=0)
        assert entry.period_months == Fraction(120)
        assert Effect.DevotionNullified in entry.effects
        # a repeat escalates to 240 months, then forever
        assert period_for(PerpetrationKind.FalseTransaction, 1) == Fraction(240)
        assert period_for(PerpetrationKind.FalseTransaction, 2) == FOREVER

    def test_non_scalable_stays_at_base(self):
        bl = Blacklist()
        for i in range(4):
            entry = bl.slash("n1", PerpetrationKind.MissedMonthlyVerification, now=i)
            assert entry.period_months == Fraction(1, 2)

    def test_histories_are_per_kind_and_per_node(self):
        bl = Blacklist()
        bl.slash("n1", PerpetrationKind.Offline48h, now=0)
        other_kind = bl.slash("n1", PerpetrationKind.UptimeBelow91, now=1)
        other_node = bl.slash("n2", PerpetrationKind.Offline48h, now=2)
        assert other_kind.offense_index == 0
        assert other_node.offense_index == 0


class TestIsBlacklisted:
    def test_half_month_window(self):
        bl = Blacklist()
        bl.slash("n1", PerpetrationKind.Offline48h, now=0)
        # 0.5 months = 15.22 days at 30.44 days per month
        assert months_to_seconds(Fraction(1, 2)) == int(15.22 * DAY_SECONDS)
        assert bl.is_blacklisted("n1", now=10 * DAY_SECONDS)
        assert not bl.is_blacklisted("n1", now=16 * DAY_SECONDS)

    def test_forever(self):
        bl = Blacklist()
        for i in range(11):
            bl.slash("n1", PerpetrationKind.Offline48h, now=0)
        assert bl.is_blacklisted("n1", now=10**15)

    def test_unknown_node(self):
        assert not Blacklist().is_blacklisted("ghost", now=0)

    def test_query_between_two_entries(self):
        bl = Blacklist()
        bl.slash("n1", PerpetrationKind.Offline48h, now=0)  # half a month
        bl.slash("n1", PerpetrationKind.Offline48h, now=2 * MONTH_SECONDS)  # one month
        assert bl.is_blacklisted("n1", now=10 * DAY_SECONDS)
        assert not bl.is_blacklisted("n1", now=MONTH_SECONDS)  # the gap
        assert not bl.fees_stopped("n1", now=MONTH_SECONDS)
        assert bl.is_blacklisted("n1", now=2 * MONTH_SECONDS + 20 * DAY_SECONDS)
        assert bl.fees_stopped("n1", now=2 * MONTH_SECONDS + 20 * DAY_SECONDS)
        assert not bl.is_blacklisted("n1", now=3 * MONTH_SECONDS)
        # an entry issued later does not reach back before its issue time
        assert not bl.is_blacklisted("n1", now=2 * MONTH_SECONDS - 1)

    def test_fees_stopped_only_by_fee_stopping_entries(self):
        bl = Blacklist()
        bl.slash("n1", PerpetrationKind.UptimeBelow91, now=0)  # one month, fees kept
        bl.slash("n1", PerpetrationKind.Offline48h, now=0)  # half a month, fees stopped
        assert bl.fees_stopped("n1", now=10 * DAY_SECONDS)
        assert not bl.fees_stopped("n1", now=20 * DAY_SECONDS)
        assert bl.is_blacklisted("n1", now=20 * DAY_SECONDS)


class TestApplyEffects:
    """Each effect is answered by a Blacklist query or pushed by apply_effects."""

    def test_missed_verification_excludes_but_keeps_active(self):
        bl = Blacklist()
        entry = bl.slash("n1", PerpetrationKind.MissedMonthlyVerification, now=0)
        assert bl.is_blacklisted("n1", now=0)
        assert bl.fees_stopped("n1", now=0)
        assert Effect.Deactivated not in entry.effects
        assert not bl.is_blacklisted("n2", now=0)
        assert not bl.fees_stopped("n2", now=0)

    def test_uptime_has_no_extra_consequence(self):
        bl = Blacklist()
        bl.slash("n1", PerpetrationKind.UptimeBelow91, now=0)
        assert bl.is_blacklisted("n1", now=0)  # only the blacklist itself gates
        assert not bl.fees_stopped("n1", now=0)

    def test_false_transaction_nullifies_devotion(self):
        record = GovernorRecord(node_id="n1", governing_since=0, formation_participant=True)
        bl = Blacklist()
        entry = bl.slash("n1", PerpetrationKind.FalseTransaction, now=555)
        apply_effects(entry, {"n1": record})
        assert bl.fees_stopped("n1", now=555)
        assert record.governing_since == 555
        assert record.formation_participant is False

    def test_devotion_kept_without_the_effect(self):
        record = GovernorRecord(node_id="n1", governing_since=0, formation_participant=True)
        entry = Blacklist().slash("n1", PerpetrationKind.Offline48h, now=555)
        apply_effects(entry, {"n1": record})
        assert record.governing_since == 0
        assert record.formation_participant is True
