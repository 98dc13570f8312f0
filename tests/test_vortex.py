"""Governance: thresholds, pool flow, voting, veto, tiers, delegation.

Threshold formulas are checked against brute-force enumeration of the
decision procedure for every eligible-power value in a dense range and
spot-checked beyond.
"""

import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bionode.slashing import PERPETRATION_TABLE, Blacklist, Effect, PerpetrationKind
from bionode.vortex import (
    APPROVAL_SHARE,
    MONTH_SECONDS,
    POOL_MAX_SECONDS,
    POOL_SHARE,
    QUORUM_SHARE,
    VETO_SHARE,
    AlreadyRegistered,
    WEEK_SECONDS,
    YEAR_SECONDS,
    ConsulApprovalMissing,
    DelegationDepthExceeded,
    DuplicatePoolVote,
    DuplicateVote,
    GovernorRecord,
    NotApproved,
    NotGovernor,
    NotNominated,
    ProposalNotActive,
    ProposalState,
    ProposalType,
    ResubmitTooSoon,
    Role,
    SelfDelegation,
    TIER_YEARS_REQUIRED,
    Tier,
    TierInsufficient,
    TooManyOpenProposals,
    VetoExhausted,
    Vortex,
    VortexError,
    VotingStillOpen,
    approval_threshold,
    ceil_share,
    decide,
    min_approving_yes,
    pool_threshold,
    quorum_threshold,
    tier_promotion,
    voting_power,
)


def make_dao(n_governors: int, tier: Tier = Tier.Citizen) -> Vortex:
    dao = Vortex()
    for i in range(n_governors):
        node = f"g{i:04d}"
        dao.register_human_node(node, now=0)
        dao.promote_to_governor(node, now=0)
        dao.seat_tier(node, tier, now=0)
    return dao


def seat_consuls(dao: Vortex, count: int) -> list[str]:
    """Seat the first count governors as Consuls at 0; return their ids."""
    consuls = sorted(dao.governors)[:count]
    for node in consuls:
        dao.seat_tier(node, Tier.Consul, now=0)
    return consuls


def drive_to_vote(dao: Vortex, proposal_id: str, now: int = 0) -> None:
    needed = pool_threshold(dao.governor_count())
    voters = sorted(
        nid for nid, r in dao.governors.items() if r.role is Role.Governor
    )[:needed]
    for v in voters:
        dao.pool_vote(v, proposal_id, upvote=True, now=now)


class TestThresholds:
    def test_headline_numbers_for_100(self):
        assert quorum_threshold(100) == 33
        assert approval_threshold(33) == 22
        assert min_approving_yes(100) == 22

    def test_veto_threshold_of_three(self):
        assert ceil_share(pytest.importorskip("fractions").Fraction(66, 100), 3) == 2

    def test_pool_threshold_100(self):
        assert pool_threshold(100) == 22

    @pytest.mark.parametrize("share", [POOL_SHARE, QUORUM_SHARE, APPROVAL_SHARE, VETO_SHARE])
    def test_ceil_share_is_the_fraction_ceiling(self, share):
        """The integer ceiling equals math.ceil on the exact rational, negative counts included."""
        counts = range(-50, 5001)
        assert [ceil_share(share, n) for n in counts] == [math.ceil(share * n) for n in counts]

    def test_decide_cases_from_formula(self):
        assert decide(100, 33, 22) == (True, True)
        assert decide(100, 32, 32) == (False, False)
        assert decide(100, 33, 21) == (True, False)

    def test_formula_matches_enumeration_dense(self):
        """Brute-force the smallest approving yes over all cast sizes."""
        for n in range(3, 301):
            best = None
            for cast in range(0, n + 1):
                for yes in range(0, cast + 1):
                    quorum, approved = decide(n, cast, yes)
                    if approved:
                        best = yes if best is None else min(best, yes)
                        break  # yes grows within cast loop; first hit is minimal
            assert best == min_approving_yes(n), n

    def test_formula_spot_checks_large(self):
        for n in (1000, 4567, 9999, 10000):
            q = quorum_threshold(n)
            y = approval_threshold(q)
            assert decide(n, q, y) == (True, True)
            assert not decide(n, q, y - 1)[1]
            assert not decide(n, q - 1, q - 1)[1]
            assert min_approving_yes(n) == y


class TestSubmission:
    def test_citizen_product_accepted(self):
        dao = make_dao(5)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        assert p.state is ProposalState.InPool

    def test_citizen_monetary_rejected_and_slashed(self):
        dao = make_dao(5)
        with pytest.raises(TierInsufficient):
            dao.submit_proposal("g0000", ProposalType.Monetary, now=0)

    def test_senator_fee_distribution_allowed(self):
        dao = make_dao(5, tier=Tier.Senator)
        p = dao.submit_proposal("g0000", ProposalType.FeeDistribution, now=0)
        assert p.state is ProposalState.InPool

    def test_vortex_core_needs_consul(self):
        dao = make_dao(5, tier=Tier.Legate)
        with pytest.raises(TierInsufficient):
            dao.submit_proposal("g0000", ProposalType.VortexCore, now=0)

    def test_sixth_open_proposal_rejected(self):
        dao = make_dao(5)
        for _ in range(5):
            dao.submit_proposal("g0000", ProposalType.Product, now=0)
        with pytest.raises(TooManyOpenProposals):
            dao.submit_proposal("g0000", ProposalType.Product, now=0)

    def test_non_human_needs_nomination(self):
        dao = make_dao(3)
        with pytest.raises(NotNominated):
            dao.submit_proposal("contract-7", ProposalType.Product, now=0)
        p = dao.submit_proposal(
            "contract-7", ProposalType.Product, now=0, nominated_by="g0000"
        )
        assert p.state is ProposalState.InPool

    def test_plain_human_node_gets_citizen_rights(self):
        dao = make_dao(3)
        dao.register_human_node("plain", now=0)
        assert dao.submit_proposal("plain", ProposalType.Product, now=0)
        with pytest.raises(TierInsufficient):
            dao.submit_proposal("plain", ProposalType.Monetary, now=0)

    def test_reports_use_pseudonym(self):
        dao = make_dao(3)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        assert "g0000" not in p.pseudonym


class TestPool:
    def test_twenty_second_vote_conveys_to_vortex(self):
        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        voters = sorted(dao.governors)[:22]
        for i, v in enumerate(voters):
            assert p.state is ProposalState.InPool
            dao.pool_vote(v, p.id, upvote=(i % 2 == 0), now=5)
        assert p.state is ProposalState.InVote
        assert p.vote_deadline == 5 + WEEK_SECONDS

    def test_duplicate_pool_vote(self):
        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        dao.pool_vote("g0001", p.id, True, now=0)
        with pytest.raises(DuplicatePoolVote):
            dao.pool_vote("g0001", p.id, False, now=0)

    def test_non_governor_cannot_pool_vote(self):
        dao = make_dao(10)
        dao.register_human_node("plain", now=0)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        with pytest.raises(NotGovernor):
            dao.pool_vote("plain", p.id, True, now=0)

    def test_pool_timeout_expires_with_cooldown(self):
        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        late = 2 * WEEK_SECONDS + 1
        dao.expire_stale(now=late)
        assert p.state is ProposalState.Expired
        assert p.resubmit_eligible_at == late + 2 * WEEK_SECONDS
        with pytest.raises(ResubmitTooSoon):
            dao.submit_proposal("g0000", ProposalType.Product, now=late, resubmit_of=p.id)
        again = dao.submit_proposal(
            "g0000", ProposalType.Product, now=late + 2 * WEEK_SECONDS, resubmit_of=p.id
        )
        assert again.state is ProposalState.InPool

    def test_proposal_in_vote_does_not_expire_from_the_pool(self):
        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id, now=0)
        assert dao.expire_stale(now=3 * WEEK_SECONDS) == []
        assert p.state is ProposalState.InVote

    def test_pool_max_times_by_type(self):
        from bionode.vortex import POOL_MAX_SECONDS

        assert POOL_MAX_SECONDS[ProposalType.Product] == 2 * WEEK_SECONDS
        assert POOL_MAX_SECONDS[ProposalType.FeeDistribution] == MONTH_SECONDS
        assert POOL_MAX_SECONDS[ProposalType.Monetary] == MONTH_SECONDS
        assert POOL_MAX_SECONDS[ProposalType.Protocol] == 2 * MONTH_SECONDS
        assert POOL_MAX_SECONDS[ProposalType.Administrative] == 3 * MONTH_SECONDS
        assert POOL_MAX_SECONDS[ProposalType.VortexCore] == 6 * MONTH_SECONDS


class TestVoting:
    def run_vote(self, n, yes_count, no_count):
        dao = make_dao(n)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id, now=0)
        ids = sorted(dao.governors)
        for v in ids[:yes_count]:
            dao.cast_vote(v, p.id, yes=True, now=1)
        for v in ids[yes_count : yes_count + no_count]:
            dao.cast_vote(v, p.id, yes=False, now=1)
        return dao, p, dao.tally(p.id, now=WEEK_SECONDS + 1)

    def test_minimum_approving_configuration(self):
        dao, p, result = self.run_vote(100, 22, 11)  # 33 cast, 22 yes
        assert result.quorum_met and result.approved
        assert p.state is ProposalState.Approved

    def test_approval_marks_the_proposer(self):
        """A plain human node has no approved proposal until a tally approves its own."""
        dao = make_dao(3)
        dao.register_human_node("h0000", now=0)
        p = dao.submit_proposal("h0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        for voter in ("g0000", "g0001", "g0002"):
            dao.cast_vote(voter, p.id, yes=True, now=1)
        assert not dao.governors["h0000"].has_approved_proposal
        assert dao.tally(p.id, now=WEEK_SECONDS).approved
        assert dao.governors["h0000"].has_approved_proposal

    def test_quorum_missed_at_32(self):
        _, p, result = self.run_vote(100, 32, 0)
        assert not result.quorum_met and not result.approved
        assert p.state is ProposalState.Declined

    def test_21_of_33_declined(self):
        _, p, result = self.run_vote(100, 21, 12)
        assert result.quorum_met and not result.approved

    def test_tally_before_deadline_raises(self):
        dao = make_dao(10)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        with pytest.raises(VotingStillOpen):
            dao.tally(p.id, now=10)

    def test_duplicate_vote(self):
        dao = make_dao(10)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        dao.cast_vote("g0001", p.id, True, now=1)
        with pytest.raises(DuplicateVote):
            dao.cast_vote("g0001", p.id, False, now=2)

    def test_adding_yes_never_flips_to_declined(self):
        for extra_yes in range(0, 66):
            dao = make_dao(100)
            p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
            drive_to_vote(dao, p.id)
            ids = sorted(dao.governors)
            for v in ids[: 22 + extra_yes]:
                dao.cast_vote(v, p.id, True, now=1)
            for v in ids[22 + extra_yes : 33 + extra_yes]:
                dao.cast_vote(v, p.id, False, now=1)
            assert dao.tally(p.id, now=WEEK_SECONDS).approved, extra_yes


class TestDelegation:
    def test_power_is_one_plus_delegations(self):
        dao = make_dao(8)
        assert voting_power(dao.governors["g0000"]) == 1
        for i in range(1, 6):
            dao.delegate(f"g{i:04d}", "g0000")
        assert voting_power(dao.governors["g0000"]) == 6

    def test_redelegation_is_instant(self):
        dao = make_dao(5)
        dao.delegate("g0001", "g0000")
        assert voting_power(dao.governors["g0000"]) == 2
        dao.delegate("g0001", "g0002")
        assert voting_power(dao.governors["g0000"]) == 1
        assert voting_power(dao.governors["g0002"]) == 2

    def test_depth_one_enforced(self):
        dao = make_dao(5)
        dao.delegate("g0001", "g0000")
        with pytest.raises(DelegationDepthExceeded):
            dao.delegate("g0002", "g0001")  # delegatee is a Delegator
        with pytest.raises(DelegationDepthExceeded):
            dao.delegate("g0000", "g0003")  # delegator holds delegations

    def test_power_conservation(self):
        dao = make_dao(10)
        dao.delegate("g0001", "g0000")
        dao.delegate("g0002", "g0000")
        dao.delegate("g0004", "g0003")
        total = sum(
            voting_power(r) for r in dao.governors.values() if r.role is Role.Governor
        )
        participants = sum(
            1 for r in dao.governors.values() if r.role in (Role.Governor, Role.Delegator)
        )
        assert total == participants == 10

    def test_delegated_power_counts_in_tally(self):
        dao = make_dao(10)
        for i in range(1, 7):
            dao.delegate(f"g{i:04d}", "g0000")
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        # only 4 governors remain; threshold computed over them
        drive_to_vote(dao, p.id)
        dao.cast_vote("g0000", p.id, True, now=1)  # power 7 of eligible 10
        result = dao.tally(p.id, now=WEEK_SECONDS)
        assert result.eligible_power == 10
        assert result.votes_cast == 7 and result.yes == 7
        assert result.approved

    def test_voter_who_stops_governing_before_the_tally_counts_zero(self):
        dao = make_dao(10)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        dao.cast_vote("g0000", p.id, True, now=1)
        dao.cast_vote("g0001", p.id, True, now=1)
        dao.cast_vote("g0002", p.id, False, now=1)
        dao.delegate("g0001", "g0003")  # g0003 did not vote: the unit is not cast
        result = dao.tally(p.id, now=WEEK_SECONDS)
        assert result.yes == 1 and result.votes_cast == 2

    def test_delegators_cannot_vote_directly(self):
        dao = make_dao(6)
        dao.delegate("g0001", "g0000")
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        with pytest.raises(NotGovernor):
            dao.cast_vote("g0001", p.id, True, now=1)

    def test_self_delegation_rejected(self):
        dao = make_dao(3)
        with pytest.raises(SelfDelegation):
            dao.delegate("g0000", "g0000")
        assert dao.governors["g0000"].role is Role.Governor
        assert dao.eligible_power() == 3
        dao.delegate("g0001", "g0000")
        with pytest.raises(SelfDelegation):
            dao.delegate("g0001", "g0001")
        assert dao.governors["g0001"].delegated_to == "g0000"
        assert dao.eligible_power() == 3


class TestVeto:
    def approved_proposal(self, dao):
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        for v in sorted(dao.governors)[: dao.governor_count()]:
            dao.cast_vote(v, p.id, True, now=1)
        dao.tally(p.id, now=WEEK_SECONDS)
        return p

    def test_two_of_three_consuls_veto(self):
        dao = make_dao(9)
        consuls = seat_consuls(dao, 3)
        p = self.approved_proposal(dao)
        assert dao.veto(p.id, consuls[:2], now=WEEK_SECONDS)
        assert p.state is ProposalState.Declined

    def test_one_of_three_insufficient(self):
        dao = make_dao(9)
        consuls = seat_consuls(dao, 3)
        p = self.approved_proposal(dao)
        assert not dao.veto(p.id, consuls[:1], now=WEEK_SECONDS)
        assert p.state is ProposalState.Approved

    def test_third_approval_cannot_be_vetoed(self):
        dao = make_dao(9)
        consuls = seat_consuls(dao, 3)
        p = self.approved_proposal(dao)
        p.approval_count = 3
        with pytest.raises(VetoExhausted):
            dao.veto(p.id, consuls, now=WEEK_SECONDS)

    def test_unapproved_cannot_be_vetoed(self):
        dao = make_dao(9)
        consuls = seat_consuls(dao, 3)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        with pytest.raises(NotApproved):
            dao.veto(p.id, consuls, now=0)

    def test_a_dao_without_consuls_cannot_veto(self):
        """Seven approving Consuls of three, in a DAO that has none, vetoed an approved decision."""
        dao = make_dao(9)
        p = self.approved_proposal(dao)
        with pytest.raises(TierInsufficient, match="g0000 is not a Consul"):
            dao.veto(p.id, sorted(dao.governors)[:7], now=WEEK_SECONDS)
        assert not dao.veto(p.id, [], now=WEEK_SECONDS)
        assert p.state is ProposalState.Approved

    def test_each_approving_consul_counts_once(self):
        dao = make_dao(9)
        consuls = seat_consuls(dao, 3)
        p = self.approved_proposal(dao)
        with pytest.raises(DuplicateVote):
            dao.veto(p.id, [consuls[0], consuls[0]], now=WEEK_SECONDS)
        assert p.state is ProposalState.Approved

    @pytest.mark.parametrize("who", ["ghost", "g0005"], ids=["unknown", "governor"])
    def test_only_consuls_may_veto(self, who):
        dao = make_dao(9)
        consuls = seat_consuls(dao, 3)
        p = self.approved_proposal(dao)
        with pytest.raises(TierInsufficient):
            dao.veto(p.id, [consuls[0], who], now=WEEK_SECONDS)

    def test_consuls_are_counted_at_now(self):
        """A Consul whose devotion was nullified neither vetoes nor counts
        towards the total: the one Consul left is 66% on its own."""
        dao = make_dao(9)
        consuls = seat_consuls(dao, 2)
        p = self.approved_proposal(dao)
        dao.nullify_devotion(consuls[1], now=WEEK_SECONDS)
        with pytest.raises(TierInsufficient):
            dao.veto(p.id, consuls, now=WEEK_SECONDS)
        assert dao.veto(p.id, consuls[:1], now=WEEK_SECONDS)


class TestTiers:
    def record(self, years, formation=True, approved=True):
        """A Governor that has governed for years at now=0."""
        return GovernorRecord(
            node_id="n",
            role=Role.Governor,
            governing_since=-years * YEAR_SECONDS,
            formation_participant=formation,
            has_approved_proposal=approved,
        )

    def test_two_years_formation_gives_legate(self):
        assert tier_promotion(self.record(2), now=0) is Tier.Legate

    def test_one_year_no_formation_gives_senator(self):
        assert tier_promotion(self.record(1, formation=False), now=0) is Tier.Senator

    def test_four_years_formation_gives_consul(self):
        assert tier_promotion(self.record(4), now=0) is Tier.Consul

    def test_four_years_without_formation_stop_at_senator(self):
        assert tier_promotion(self.record(4, formation=False), now=0) is Tier.Senator

    def test_no_approved_proposal_blocks_promotion(self):
        assert tier_promotion(self.record(4, approved=False), now=0) is Tier.Citizen

    def test_promotion_monotone_in_time(self):
        r = self.record(0)
        tiers = [tier_promotion(r, now=y * YEAR_SECONDS).value for y in range(6)]
        assert tiers == sorted(tiers)
        assert tiers[0] == Tier.Citizen.value and tiers[-1] == Tier.Consul.value

    @pytest.mark.parametrize("role", [Role.HumanNode, Role.Delegator])
    def test_a_non_governor_has_citizen_rights(self, role):
        r = self.record(4)
        r.role = role
        assert tier_promotion(r, now=0) is Tier.Citizen

    @pytest.mark.parametrize("tier", list(Tier))
    def test_seat_tier_seats_the_standing_the_tier_needs(self, tier):
        dao = make_dao(1, tier=tier)
        record = dao.governors["g0000"]
        assert tier_promotion(record, now=0) is tier
        assert record.governing_since == -TIER_YEARS_REQUIRED[tier] * YEAR_SECONDS
        assert record.formation_participant is (tier in (Tier.Legate, Tier.Consul))

    def test_a_nullified_devotion_lowers_the_tier(self):
        """A Consul caught in a FalseTransaction kept its tier and its VortexCore rights."""
        dao = make_dao(2, tier=Tier.Consul)
        assert dao.submit_proposal("g0000", ProposalType.VortexCore, now=100)
        dao.nullify_devotion("g0000", now=100)
        assert tier_promotion(dao.governors["g0000"], now=100) is Tier.Citizen
        with pytest.raises(TierInsufficient):
            dao.submit_proposal("g0000", ProposalType.VortexCore, now=100)
        # the clock restarts: a year on it is a Senator, and without Formation it stays one
        assert tier_promotion(dao.governors["g0000"], now=100 + 4 * YEAR_SECONDS) is Tier.Senator
        assert tier_promotion(dao.governors["g0001"], now=100) is Tier.Consul

    def test_a_nominee_proposes_with_its_nominators_tier(self):
        dao = make_dao(1, tier=Tier.Senator)
        assert dao.submit_proposal("contract-7", ProposalType.FeeDistribution, now=0, nominated_by="g0000")
        with pytest.raises(TierInsufficient):
            dao.submit_proposal("contract-7", ProposalType.Monetary, now=0, nominated_by="g0000")


class TestDevotion:
    """A FalseTransaction slash nullifies devotion, and the Vortex resets the record it owns."""

    def test_false_transaction_nullifies_devotion(self):
        dao = make_dao(2)
        for node in dao.governors:  # Legates governing since 0
            dao.seat_tier(node, Tier.Legate, now=2 * YEAR_SECONDS)
        bl = Blacklist()
        entry = bl.slash("g0000", PerpetrationKind.FalseTransaction, now=555)
        assert Effect.DevotionNullified in entry.effects and bl.fees_stopped("g0000", now=555)
        dao.nullify_devotion("g0000", now=entry.issued_at)
        assert dao.governors["g0000"].governing_since == 555
        assert dao.governors["g0000"].formation_participant is False
        # the other record, its role and the counts are untouched
        assert dao.governors["g0001"].governing_since == 0
        assert dao.governors["g0001"].formation_participant is True
        assert dao.governor_count() == 2 and dao.governors["g0000"].role is Role.Governor

    def test_devotion_kept_without_the_effect(self):
        """Only a FalseTransaction entry carries the effect, so no other slash
        reaches nullify_devotion."""
        entry = Blacklist().slash("g0000", PerpetrationKind.Offline48h, now=555)
        assert Effect.DevotionNullified not in entry.effects
        carriers = [kind for kind, row in PERPETRATION_TABLE.items() if Effect.DevotionNullified in row.effects]
        assert carriers == [PerpetrationKind.FalseTransaction]


class TestMembership:
    def test_reregistering_is_rejected(self):
        dao = make_dao(2)
        dao.delegate("g0000", "g0001")
        with pytest.raises(AlreadyRegistered):
            dao.register_human_node("g0001", now=5)
        assert dao.governors["g0001"].role is Role.Governor
        assert dao.governors["g0001"].delegations_received == {"g0000"}
        assert dao.eligible_power() == 2
        assert dao.governor_count() == 1


# n4 starts unregistered; the others start as Governors
NODES = [f"n{i}" for i in range(5)]
node = st.sampled_from(NODES)
membership_steps = st.lists(
    st.one_of(
        st.tuples(st.just("register"), node),
        st.tuples(st.just("promote"), node),
        st.tuples(st.just("delegate"), node, node),
        st.tuples(st.just("undelegate"), node),
    ),
    max_size=40,
)


def run_steps(steps: list, check=lambda dao: None) -> Vortex:
    dao = Vortex()
    for nid in NODES[:-1]:
        dao.register_human_node(nid, now=0)
        dao.promote_to_governor(nid, now=0)
    check(dao)
    for now, step in enumerate(steps, start=1):
        apply_step(dao, step, now)
        check(dao)
    return dao


def apply_step(dao: Vortex, step: tuple, now: int) -> None:
    kind, *ids = step
    try:
        if kind == "register":
            dao.register_human_node(ids[0], now=now)
        elif kind == "promote":
            dao.promote_to_governor(ids[0], now=now)
        elif kind == "delegate":
            dao.delegate(ids[0], ids[1])
        else:
            dao.undelegate(ids[0])
    except (KeyError, VortexError):
        pass  # unknown ids and refused moves leave the state as it was


class TestGovernorCount:
    @given(steps=membership_steps)
    @settings(max_examples=300, deadline=None)
    def test_count_matches_roles_after_every_step(self, steps):
        def check(dao):
            governors = [r for r in dao.governors.values() if r.role is Role.Governor]
            assert dao.governor_count() == len(governors)
            # every delegated unit sits with a Governor, so none is lost
            for r in dao.governors.values():
                if r.delegated_to is not None:
                    assert r.role is Role.Delegator
                    assert dao.governors[r.delegated_to].role is Role.Governor
                    assert r.node_id in dao.governors[r.delegated_to].delegations_received
            participants = sum(
                1 for r in dao.governors.values() if r.role in (Role.Governor, Role.Delegator)
            )
            # the O(1) count agrees with the record scan it replaced
            assert dao.eligible_power() == participants == sum(voting_power(r) for r in governors)

        run_steps(steps, check)

    @given(steps=membership_steps, ups=st.lists(st.booleans(), min_size=len(NODES)))
    @settings(max_examples=300, deadline=None)
    def test_pool_moves_to_vote_on_the_threshold_vote(self, steps, ups):
        dao = run_steps(steps)
        voters = sorted(nid for nid, r in dao.governors.items() if r.role is Role.Governor)
        if not voters:
            return
        now = len(steps) + 1
        p = dao.submit_proposal(voters[0], ProposalType.Product, now=now)
        needed = pool_threshold(dao.governor_count())
        for i, (voter, up) in enumerate(zip(voters[:needed], ups)):
            assert p.state is ProposalState.InPool
            dao.pool_vote(voter, p.id, upvote=up, now=now)
            assert len(p.pool) == i + 1
        assert p.state is ProposalState.InVote


pool_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 4), st.sampled_from(list(ProposalType))),
        st.tuples(st.just("vote"), st.integers(0, 4), st.integers(0, 30), st.booleans()),
        st.tuples(st.just("wait"), st.integers(0, 8 * WEEK_SECONDS)),
    ),
    max_size=60,
)


class TestPoolIndex:
    @given(steps=pool_steps)
    @settings(max_examples=200, deadline=None)
    def test_expiry_matches_a_scan_of_every_proposal(self, steps):
        """After any run of submissions, pool votes and waits, expire_stale
        expires exactly the pool proposals past their max pool time, in
        submission order."""
        dao = make_dao(5, tier=Tier.Consul)  # two pool votes move a proposal to InVote
        now = 0
        for kind, *args in steps:
            if kind == "wait":
                now += args[0]
                stale = [
                    p for p in dao.proposals.values()
                    if p.state is ProposalState.InPool
                    and now > p.submitted_at + POOL_MAX_SECONDS[p.type]
                ]
                assert dao.expire_stale(now) == stale
                assert all(p.state is ProposalState.Expired for p in stale)
                continue
            try:
                if kind == "submit":
                    dao.submit_proposal(f"g{args[0]:04d}", args[1], now=now)
                else:
                    voter, index, up = args
                    ids = list(dao.proposals)
                    if ids:
                        dao.pool_vote(f"g{voter:04d}", ids[index % len(ids)], up, now=now)
            except VortexError:
                pass
        assert dao.expire_stale(now + YEAR_SECONDS) == [
            p for p in dao.proposals.values() if p.state is ProposalState.Expired
            and p.resubmit_eligible_at == now + YEAR_SECONDS + 2 * WEEK_SECONDS
        ]
        assert not any(p.state is ProposalState.InPool for p in dao.proposals.values())


class TestPoolExpiry:
    """Expiry is read where a decision needs it: on a vote at a stale
    proposal and before the open-proposal count of a submission."""

    def test_votes_on_a_fresh_proposal_sweep_nothing(self, monkeypatch):
        dao = make_dao(100)
        old = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        late = 2 * WEEK_SECONDS + 1
        fresh = dao.submit_proposal("g0001", ProposalType.Product, now=late - 1)
        sweeps = []
        sweep = dao.expire_stale
        monkeypatch.setattr(dao, "expire_stale", lambda now: sweeps.append(now) or sweep(now))
        drive_to_vote(dao, fresh.id, now=late)
        assert fresh.state is ProposalState.InVote
        assert sweeps == []
        # the stale proposal waits for a decision that reads it
        assert old.state is ProposalState.InPool
        with pytest.raises(ProposalNotActive, match="is Expired"):
            dao.pool_vote("g0002", old.id, True, now=late)
        assert sweeps == [late]
        assert old.resubmit_eligible_at == late + 2 * WEEK_SECONDS

    def test_stale_proposals_do_not_count_against_the_limit(self):
        dao = make_dao(100)
        stale = [dao.submit_proposal("g0000", ProposalType.Product, now=0) for _ in range(5)]
        with pytest.raises(TooManyOpenProposals):
            dao.submit_proposal("g0000", ProposalType.Product, now=2 * WEEK_SECONDS)
        late = 2 * WEEK_SECONDS + 1
        sixth = dao.submit_proposal("g0000", ProposalType.Product, now=late)
        assert sixth.state is ProposalState.InPool
        for p in stale:
            assert p.state is ProposalState.Expired
            assert p.resubmit_eligible_at == late + 2 * WEEK_SECONDS


# ids a batch may name: sixteen Governors (some of them Delegators), two plain human nodes, an
# unknown id. A batch is never empty: an empty one still checks the proposal, a loop of none does not
BATCH_IDS = [f"g{i:04d}" for i in range(16)] + ["h0", "h1", "nobody"]
batch_ids = st.lists(st.sampled_from(BATCH_IDS), min_size=1, max_size=12)
batch_draws = {"ids": batch_ids, "delegators": st.integers(0, 6), "valid": st.integers(0, 5)}


def with_valid_prefix(delegators: int, valid: int, ids: list[str]) -> list[str]:
    """The first `valid` Governors that are not Delegators, then ids, so that
    many batches reach the pool threshold before a refused id."""
    return [f"g{i:04d}" for i in range(delegators + 1, delegators + 1 + valid)] + ids


def batch_dao(delegators: int, in_vote: bool) -> Vortex:
    """Sixteen Governors, g0001.. delegating to g0000 as many as delegators
    says, two plain human nodes, and proposal hup-1 submitted at 0; in the
    vote from 0 if in_vote."""
    dao = make_dao(16)
    for i in range(1, delegators + 1):
        dao.delegate(f"g{i:04d}", "g0000")
    for node in ("h0", "h1"):
        dao.register_human_node(node, now=0)
    p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
    if in_vote:
        drive_to_vote(dao, p.id)
    return dao


def refusal(call) -> type | None:
    try:
        call()
    except VortexError as exc:
        return type(exc)
    return None


def proposals_state(dao: Vortex) -> list:
    return [(p.state, list(p.pool.items()), list(p.votes.items()), p.vote_deadline, p.resubmit_eligible_at)
            for p in dao.proposals.values()]


class TestBatchVotes:
    """pool_votes and cast_votes check the proposal once per call and each id
    in turn. For any ids they record the same ballots in the same order, leave
    the same states, and raise the same refusal after the same ballots as a
    loop of one-id calls, which checks everything on every id."""

    @given(**batch_draws, phase=st.sampled_from(["fresh", "stale", "in_vote"]), up=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_pool_votes_match_a_loop_of_pool_vote(self, ids, delegators, valid, phase, up):
        ids = with_valid_prefix(delegators, valid, ids)
        now = 2 * WEEK_SECONDS + 1 if phase == "stale" else 1  # a Product's pool time is two weeks
        batch, single = (batch_dao(delegators, in_vote=phase == "in_vote") for _ in range(2))
        got = refusal(lambda: batch.pool_votes(ids, "hup-1", up, now))

        def loop():
            p = single.proposals["hup-1"]
            for governor_id in ids:
                single.pool_vote(governor_id, p.id, up, now)
                if p.state is not ProposalState.InPool:
                    return

        assert got is refusal(loop)
        assert proposals_state(batch) == proposals_state(single)
        event(f"{phase}: {got.__name__ if got else batch.proposals['hup-1'].state.value}")

    @given(**batch_draws, phase=st.sampled_from(["open", "closed", "in_pool"]), yes=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_cast_votes_match_a_loop_of_cast_vote(self, ids, delegators, valid, phase, yes):
        ids = with_valid_prefix(delegators, valid, ids)
        now = WEEK_SECONDS if phase == "closed" else 1  # the vote opened at 0
        batch, single = (batch_dao(delegators, in_vote=phase != "in_pool") for _ in range(2))
        got = refusal(lambda: batch.cast_votes(ids, "hup-1", yes, now))

        def loop():
            for governor_id in ids:
                single.cast_vote(governor_id, "hup-1", yes, now)

        assert got is refusal(loop)
        assert proposals_state(batch) == proposals_state(single)
        event(f"{phase}: {got.__name__ if got else 'accepted'}")


class TestFormation:
    def approved(self, dao):
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        for v in sorted(dao.governors):
            dao.cast_vote(v, p.id, True, now=1)
        dao.tally(p.id, now=WEEK_SECONDS)
        return p

    def test_year_five_no_consul_gate(self):
        dao = make_dao(6)
        seat_consuls(dao, 3)
        p = self.approved(dao)
        assert not dao.route_to_formation(p.id, [], now=5 * YEAR_SECONDS)

    def test_year_one_with_consuls(self):
        dao = make_dao(6)
        consuls = seat_consuls(dao, 3)
        p = self.approved(dao)
        assert dao.route_to_formation(p.id, consuls[:2], now=1 * YEAR_SECONDS)

    def test_year_one_below_threshold(self):
        dao = make_dao(6)
        consuls = seat_consuls(dao, 3)
        p = self.approved(dao)
        with pytest.raises(ConsulApprovalMissing, match="1 consuls; need 2"):
            dao.route_to_formation(p.id, consuls[:1], now=1 * YEAR_SECONDS)

    def test_the_gate_reads_the_dao_clock(self):
        """Vortex time starts at genesis, so the gate closes at four years of it."""
        dao = make_dao(6)
        seat_consuls(dao, 3)
        p = self.approved(dao)
        with pytest.raises(ConsulApprovalMissing):
            dao.route_to_formation(p.id, [], now=4 * YEAR_SECONDS - 1)
        assert not dao.route_to_formation(p.id, [], now=4 * YEAR_SECONDS)

    def test_a_dao_without_consuls_grants_nothing_in_its_first_years(self):
        """Nine approving Consuls of two, in a DAO that has none, got a grant."""
        dao = make_dao(9)
        p = self.approved(dao)
        with pytest.raises(TierInsufficient):
            dao.route_to_formation(p.id, sorted(dao.governors), now=1 * YEAR_SECONDS)
        with pytest.raises(ConsulApprovalMissing, match="0 consuls; need 1"):
            dao.route_to_formation(p.id, [], now=1 * YEAR_SECONDS)

    def test_a_consul_is_named_once(self):
        dao = make_dao(6)
        consuls = seat_consuls(dao, 3)
        p = self.approved(dao)
        with pytest.raises(DuplicateVote):
            dao.route_to_formation(p.id, [consuls[0]] * 2, now=1 * YEAR_SECONDS)


class TestStateMachine:
    def test_no_illegal_transitions(self):
        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        seen = [p.state]
        drive_to_vote(dao, p.id)
        seen.append(p.state)
        for v in sorted(dao.governors)[:40]:
            dao.cast_vote(v, p.id, True, now=1)
        dao.tally(p.id, now=WEEK_SECONDS)
        seen.append(p.state)
        assert seen == [ProposalState.InPool, ProposalState.InVote, ProposalState.Approved]

    def test_votes_on_expired_proposal_rejected(self):
        from bionode.vortex import ProposalNotActive

        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        dao.expire_stale(now=3 * WEEK_SECONDS)
        with pytest.raises(ProposalNotActive):
            dao.pool_vote("g0001", p.id, True, now=3 * WEEK_SECONDS)


class TestClosedProposalsDropBallots:
    """A counted or expired proposal keeps its outcome, not its ballots."""

    @pytest.mark.parametrize("yes, no, state", [
        (40, 10, ProposalState.Approved),
        (10, 40, ProposalState.Declined),
    ])
    def test_tally(self, yes, no, state):
        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        drive_to_vote(dao, p.id)
        ids = sorted(dao.governors)
        for v in ids[:yes]:
            dao.cast_vote(v, p.id, True, now=1)
        for v in ids[yes : yes + no]:
            dao.cast_vote(v, p.id, False, now=1)
        assert len(p.pool) == pool_threshold(100) and len(p.votes) == yes + no
        dao.tally(p.id, now=WEEK_SECONDS)
        assert p.pool == {} and p.votes == {}
        assert p.state is state
        assert p.approval_count == (state is ProposalState.Approved)
        if state is ProposalState.Declined:
            assert p.resubmit_eligible_at == WEEK_SECONDS + 2 * WEEK_SECONDS
            again = dao.submit_proposal(
                "g0000", ProposalType.Product, now=p.resubmit_eligible_at, resubmit_of=p.id
            )
            assert again.state is ProposalState.InPool and again.approval_count == 0
        else:
            assert p.resubmit_eligible_at is None

    def test_expire_stale(self):
        dao = make_dao(100)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        dao.pool_vote("g0001", p.id, True, now=1)
        dao.pool_vote("g0002", p.id, False, now=1)
        late = 2 * WEEK_SECONDS + 1
        assert dao.expire_stale(now=late) == [p]
        assert p.pool == {} and p.votes == {}
        assert p.state is ProposalState.Expired
        assert p.approval_count == 0
        assert p.resubmit_eligible_at == late + 2 * WEEK_SECONDS
        again = dao.submit_proposal(
            "g0000", ProposalType.Product, now=p.resubmit_eligible_at, resubmit_of=p.id
        )
        assert again.state is ProposalState.InPool
