"""Vortex: the governance state machine.

Human nodes earn the Governor role by getting a proposal approved;
Governors submit proposals to an anonymous pool, pull them into a vote
once enough of them up/downvote, vote for a strict week, and can delegate
their single vote to another Governor (depth one, instantly revocable).
Consuls can veto an approved decision at most twice; a third approval
stands. Approved proposals that need funding route to Formation, which for
the network's first four years additionally requires Consul approval.

No tier is stored: tier_promotion reads it from a record's standing, so
it grows with governing years and falls with a nullified devotion. The veto
and the Formation gate take Consuls by id and count the DAO's own.

All thresholds ("at least 33%", "66%", "22%") are ceilings of exact
rationals. Quorum and approval are measured in voting power: a Governor
counts 1 plus the delegations they currently hold, so every participating
human node contributes exactly one unit somewhere.

Time is integer seconds; the machine is single-writer and never consults
a clock of its own.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .slashing import MONTH_SECONDS

WEEK_SECONDS = 604_800
YEAR_SECONDS = 31_557_600  # 365.25 days
RESUBMIT_COOLDOWN = 2 * WEEK_SECONDS
MAX_OPEN_PROPOSALS = 5

POOL_SHARE = Fraction(22, 100)
QUORUM_SHARE = Fraction(33, 100)
APPROVAL_SHARE = Fraction(66, 100)
VETO_SHARE = Fraction(66, 100)
FORMATION_CONSUL_GATE_SECONDS = 4 * YEAR_SECONDS


class VortexError(Exception):
    pass


class TierInsufficient(VortexError):
    pass


class TooManyOpenProposals(VortexError):
    pass


class NotNominated(VortexError):
    pass


class NotGovernor(VortexError):
    pass


class DuplicatePoolVote(VortexError):
    pass


class DuplicateVote(VortexError):
    pass


class ProposalNotActive(VortexError):
    pass


class ResubmitTooSoon(VortexError):
    pass


class VotingStillOpen(VortexError):
    pass


class NotApproved(VortexError):
    pass


class VetoExhausted(VortexError):
    pass


class ConsulApprovalMissing(VortexError):
    pass


class DelegationDepthExceeded(VortexError):
    pass


class AlreadyRegistered(VortexError):
    pass


class SelfDelegation(VortexError):
    pass


class Role(Enum):
    HumanNode = "HumanNode"
    Governor = "Governor"
    Delegator = "Delegator"


class Tier(Enum):
    Citizen = 1
    Senator = 2
    Legate = 3
    Consul = 4


class ProposalType(Enum):
    Product = "Product"
    FeeDistribution = "FeeDistribution"
    Monetary = "Monetary"
    Protocol = "Protocol"
    Administrative = "Administrative"
    VortexCore = "VortexCore"


class ProposalState(Enum):
    InPool = "InPool"
    InVote = "InVote"
    Approved = "Approved"
    Declined = "Declined"
    Expired = "Expired"


POOL_MAX_SECONDS = {
    ProposalType.Product: 2 * WEEK_SECONDS,
    ProposalType.FeeDistribution: MONTH_SECONDS,
    ProposalType.Monetary: MONTH_SECONDS,
    ProposalType.Protocol: 2 * MONTH_SECONDS,
    ProposalType.Administrative: 3 * MONTH_SECONDS,
    ProposalType.VortexCore: 6 * MONTH_SECONDS,
}

MIN_TIER_FOR_TYPE = {
    ProposalType.Product: Tier.Citizen,
    ProposalType.FeeDistribution: Tier.Senator,
    ProposalType.Monetary: Tier.Legate,
    ProposalType.Protocol: Tier.Legate,
    ProposalType.Administrative: Tier.Legate,
    ProposalType.VortexCore: Tier.Consul,
}

TIER_YEARS_REQUIRED = {
    Tier.Citizen: 0,
    Tier.Senator: 1,
    Tier.Legate: 2,
    Tier.Consul: 4,
}

TIERS_REQUIRING_FORMATION = {Tier.Legate, Tier.Consul}

# Enum member reads and hashes run Python code (~100 ns each on 3.11): the vote paths compare
# with _GOVERNOR, _IN_POOL and _IN_VOTE, and seat_tier reads (seconds governed, Formation)
# with one hash of the tier
_GOVERNOR = Role.Governor
_IN_POOL = ProposalState.InPool
_IN_VOTE = ProposalState.InVote
_SEATING = {t: (y * YEAR_SECONDS, t in TIERS_REQUIRING_FORMATION) for t, y in TIER_YEARS_REQUIRED.items()}


def ceil_share(share: Fraction, count: int) -> int:
    """ceil(share * count) in integers, without building a Fraction per call."""
    return -(-share.numerator * count // share.denominator)


def pool_threshold(governor_count: int) -> int:
    return ceil_share(POOL_SHARE, governor_count)


def quorum_threshold(eligible_power: int) -> int:
    return ceil_share(QUORUM_SHARE, eligible_power)


def approval_threshold(cast_power: int) -> int:
    return ceil_share(APPROVAL_SHARE, cast_power)


def decide(eligible_power: int, cast_power: int, yes_power: int) -> tuple[bool, bool]:
    """Pure quorum/approval decision used by tally and by property sweeps."""
    quorum_met = cast_power >= quorum_threshold(eligible_power)
    approved = quorum_met and yes_power >= approval_threshold(cast_power)
    return quorum_met, approved


def min_approving_yes(eligible_power: int) -> int:
    """Smallest yes power that can ever approve: 66% of the smallest quorum."""
    return approval_threshold(quorum_threshold(eligible_power))


@dataclass
class GovernorRecord:
    node_id: str
    role: Role = Role.HumanNode
    governing_since: int = 0
    formation_participant: bool = False
    has_approved_proposal: bool = False
    delegations_received: set[str] = field(default_factory=set)
    delegated_to: str | None = None


def voting_power(record: GovernorRecord) -> int:
    """1 + live delegations; a Delegator's own unit travels to the delegatee."""
    return 1 + len(record.delegations_received)


def tier_promotion(record: GovernorRecord, now: int) -> Tier:
    """The one reader of a tier: the highest one the record's standing meets at now.

    Above Citizen, a Governor needs an approved proposal and the tier's years
    since governing_since; Legate and above also need Formation. Anyone else,
    a Delegator included, has Citizen rights.
    """
    best = Tier.Citizen
    if record.role is not Role.Governor or not record.has_approved_proposal:
        return best
    years = (now - record.governing_since) // YEAR_SECONDS
    for tier, required in TIER_YEARS_REQUIRED.items():
        if years >= required and (tier not in TIERS_REQUIRING_FORMATION or record.formation_participant):
            best = tier
    return best


@dataclass
class Proposal:
    id: str
    proposer: str
    type: ProposalType
    state: ProposalState
    submitted_at: int
    pool: dict[str, bool] = field(default_factory=dict)  # governor -> upvoted, until counted
    votes: dict[str, bool] = field(default_factory=dict)  # governor -> voted yes, until counted
    vote_deadline: int | None = None
    resubmit_eligible_at: int | None = None
    approval_count: int = 0

    @property
    def pseudonym(self) -> str:
        # reports never show the proposer, only this unlinkable handle
        return hashlib.sha256(f"pool:{self.id}".encode()).hexdigest()[:8]

    @property
    def open(self) -> bool:
        return self.state in (_IN_POOL, _IN_VOTE)

    def stale(self, now: int) -> bool:
        return self.state is _IN_POOL and now > self.submitted_at + POOL_MAX_SECONDS[self.type]


@dataclass(frozen=True)
class TallyResult:
    eligible_power: int
    votes_cast: int
    yes: int
    quorum_met: bool
    approved: bool

    def to_record(self, proposal: Proposal) -> dict:
        return {
            "proposal": proposal.pseudonym,
            "type": proposal.type.value,
            "eligible_power": self.eligible_power,
            "votes_cast": self.votes_cast,
            "yes": self.yes,
            "quorum_met": self.quorum_met,
            "approved": self.approved,
        }


class Vortex:
    """Single-writer governance state: governors, the pool, and live votes."""

    def __init__(self):
        self.governors: dict[str, GovernorRecord] = {}
        self.proposals: dict[str, Proposal] = {}
        # records per role, kept by _set_role and register_human_node; keyed by
        # the role's value, since governor_count() runs on every pool vote and a
        # str keeps its hash where hashing a Role runs Enum.__hash__ each time
        self._role_counts: dict[str, int] = dict.fromkeys((r.value for r in Role), 0)

    # -- membership -------------------------------------------------------

    def _set_role(self, record: GovernorRecord, role: Role) -> None:
        """The one write point of a role after registration, so the role counts stay exact."""
        self._role_counts[record.role.value] -= 1
        self._role_counts[role.value] += 1
        record.role = role

    def register_human_node(self, node_id: str, now: int = 0) -> GovernorRecord:
        if node_id in self.governors:
            # a fresh record would orphan the delegations that point at it
            raise AlreadyRegistered(f"{node_id} is already registered")
        record = GovernorRecord(node_id=node_id, governing_since=now)
        self.governors[node_id] = record
        self._role_counts[record.role.value] += 1
        return record

    def promote_to_governor(self, node_id: str, now: int) -> GovernorRecord:
        record = self.governors[node_id]
        if record.role == Role.HumanNode:
            self._set_role(record, Role.Governor)
            record.governing_since = now
        return record

    def seat_tier(self, node_id: str, tier: Tier, now: int) -> None:
        """Give the record the standing tier needs at now: an approved proposal,
        the tier's governing years before now, and Formation if it asks for it."""
        record = self.governors[node_id]
        seconds, formation = _SEATING[tier]
        record.has_approved_proposal = True
        record.governing_since = now - seconds
        record.formation_participant = formation

    def nullify_devotion(self, node_id: str, now: int) -> None:
        """A DevotionNullified slash: the governing years restart at now and Formation participation is lost."""
        record = self.governors[node_id]
        record.governing_since = now
        record.formation_participant = False

    def governor_count(self) -> int:
        return self._role_counts["Governor"]

    def eligible_power(self) -> int:
        # delegate() hands a Delegator's unit only to a Governor, who then cannot delegate, and
        # undelegate() takes it back: the Governors' summed voting_power is #Governors + #Delegators
        return self._role_counts["Governor"] + self._role_counts["Delegator"]

    # -- delegation -------------------------------------------------------

    def delegate(self, delegator_id: str, delegatee_id: str) -> None:
        src = self.governors[delegator_id]
        dst = self.governors[delegatee_id]
        if src.role not in (Role.Governor, Role.Delegator):
            raise NotGovernor(f"{delegator_id} is not a Governor")
        if delegator_id == delegatee_id:
            # the unit would sit with a Delegator and drop out of every tally
            raise SelfDelegation(f"{delegator_id} cannot delegate to itself")
        if dst.role == Role.Delegator:
            raise DelegationDepthExceeded("cannot delegate to a Delegator")
        if dst.role != Role.Governor:
            raise NotGovernor(f"{delegatee_id} is not a Governor")
        if src.delegations_received:
            raise DelegationDepthExceeded(
                "a Governor holding delegations cannot delegate"
            )
        if src.delegated_to is not None:
            self.undelegate(delegator_id)  # re-delegation is instant
        self._set_role(src, Role.Delegator)
        src.delegated_to = delegatee_id
        dst.delegations_received.add(delegator_id)

    def undelegate(self, delegator_id: str) -> None:
        src = self.governors[delegator_id]
        if src.delegated_to is None:
            return
        self.governors[src.delegated_to].delegations_received.discard(delegator_id)
        src.delegated_to = None
        self._set_role(src, Role.Governor)

    # -- proposals --------------------------------------------------------

    def _open_count(self, proposer: str) -> int:
        return sum(1 for p in self.proposals.values() if p.proposer == proposer and p.open)

    def submit_proposal(
        self,
        proposer: str,
        ptype: ProposalType,
        now: int,
        nominated_by: str | None = None,
        resubmit_of: str | None = None,
    ) -> Proposal:
        record = self.governors.get(proposer)
        if record is None:
            # non-human actors only get in on a Governor's nomination, with its tier
            record = self.governors.get(nominated_by or "")
            if record is None or record.role != Role.Governor:
                raise NotNominated(f"{proposer} is not a human node and has no nominator")
        tier = tier_promotion(record, now)
        if tier.value < MIN_TIER_FOR_TYPE[ptype].value:
            # a slashable perpetration; the caller that owns the blacklist slashes it
            raise TierInsufficient(f"{tier.name} may not submit {ptype.value}")
        self.expire_stale(now)  # a stale proposal does not count against the limit
        if self._open_count(proposer) >= MAX_OPEN_PROPOSALS:
            raise TooManyOpenProposals(f"{proposer} already has {MAX_OPEN_PROPOSALS} open")

        approval_count = 0
        if resubmit_of is not None:
            prior = self.proposals[resubmit_of]
            if prior.resubmit_eligible_at is not None and now < prior.resubmit_eligible_at:
                raise ResubmitTooSoon(
                    f"{resubmit_of} can be proposed again at {prior.resubmit_eligible_at}"
                )
            approval_count = prior.approval_count

        proposal = Proposal(
            id=f"hup-{len(self.proposals) + 1}",  # proposals are never removed
            proposer=proposer,
            type=ptype,
            state=_IN_POOL,
            submitted_at=now,
            approval_count=approval_count,
        )
        self.proposals[proposal.id] = proposal
        return proposal

    def expire_stale(self, now: int) -> list[Proposal]:
        """Drop pool proposals that outlived their type's max pool time, in
        submission order. The one writer of Expired: submit_proposal calls it
        before counting open proposals, and pool_votes when its target is stale."""
        expired = [p for p in self.proposals.values() if p.stale(now)]
        for p in expired:
            p.state = ProposalState.Expired
            p.resubmit_eligible_at = now + RESUBMIT_COOLDOWN
            p.pool.clear()
        return expired

    def pool_votes(self, governor_ids: Iterable[str], proposal_id: str, upvote: bool, now: int) -> Proposal:
        """Pool-vote each id in order until the pool threshold moves the proposal
        to the vote; the ids after that one are not read. A refused id raises and
        leaves the ballots before it recorded, as a loop of pool_vote calls does."""
        proposal = self.proposals[proposal_id]
        if proposal.stale(now):
            self.expire_stale(now)
        if proposal.state is not _IN_POOL:
            raise ProposalNotActive(f"{proposal_id} is {proposal.state.value}")
        governors, pool = self.governors, proposal.pool
        threshold = pool_threshold(self.governor_count())
        for governor_id in governor_ids:
            record = governors.get(governor_id)
            if record is None or record.role is not _GOVERNOR:
                raise NotGovernor(f"{governor_id} cannot vote in the pool")
            if governor_id in pool:
                raise DuplicatePoolVote(f"{governor_id} already pool-voted on {proposal_id}")
            pool[governor_id] = upvote
            if len(pool) >= threshold:
                proposal.state = _IN_VOTE
                proposal.vote_deadline = now + WEEK_SECONDS
                break
        return proposal

    def pool_vote(self, governor_id: str, proposal_id: str, upvote: bool, now: int) -> Proposal:
        return self.pool_votes((governor_id,), proposal_id, upvote, now)

    def cast_votes(self, governor_ids: Iterable[str], proposal_id: str, yes: bool, now: int) -> Proposal:
        """Cast the same ballot for each id in order. A refused id raises and leaves
        the ballots before it recorded, as a loop of cast_vote calls does."""
        proposal = self.proposals[proposal_id]
        if proposal.state is not _IN_VOTE:
            raise ProposalNotActive(f"{proposal_id} is {proposal.state.value}")
        if now >= proposal.vote_deadline:
            raise ProposalNotActive("voting window closed; call tally")
        governors, votes = self.governors, proposal.votes
        for governor_id in governor_ids:
            record = governors.get(governor_id)
            if record is None or record.role is not _GOVERNOR:
                raise NotGovernor(f"{governor_id} cannot vote (delegators vote via their delegatee)")
            if governor_id in votes:
                raise DuplicateVote(f"{governor_id} already voted on {proposal_id}")
            votes[governor_id] = yes
        return proposal

    def cast_vote(self, governor_id: str, proposal_id: str, yes: bool, now: int) -> Proposal:
        return self.cast_votes((governor_id,), proposal_id, yes, now)

    def tally(self, proposal_id: str, now: int) -> TallyResult:
        proposal = self.proposals[proposal_id]
        if proposal.state is not _IN_VOTE:
            raise ProposalNotActive(f"{proposal_id} is {proposal.state.value}")
        if now < proposal.vote_deadline:
            raise VotingStillOpen(f"deadline at {proposal.vote_deadline}")

        eligible = self.eligible_power()
        cast = yes = 0
        for voter, in_favour in proposal.votes.items():
            record = self.governors[voter]
            # a voter who has since delegated counts zero
            power = voting_power(record) if record.role is _GOVERNOR else 0
            cast += power
            if in_favour:
                yes += power
        quorum_met, approved = decide(eligible, cast, yes)
        proposal.pool.clear()
        proposal.votes.clear()
        if approved:
            proposal.state = ProposalState.Approved
            proposal.approval_count += 1
            proposer = self.governors.get(proposal.proposer)
            if proposer is not None:
                proposer.has_approved_proposal = True
        else:
            proposal.state = ProposalState.Declined
            proposal.resubmit_eligible_at = now + RESUBMIT_COOLDOWN
        return TallyResult(
            eligible_power=eligible,
            votes_cast=cast,
            yes=yes,
            quorum_met=quorum_met,
            approved=approved,
        )

    def _consul_backing(self, consuls: list[str], now: int) -> tuple[int, int]:
        """How many of the DAO's Consuls at now back a decision, each named once,
        and how many it needs: 66% of them, and at least one."""
        if len(set(consuls)) < len(consuls):
            raise DuplicateVote(f"a Consul is named twice in {consuls}")
        for node_id in consuls:
            record = self.governors.get(node_id)
            if record is None or tier_promotion(record, now) is not Tier.Consul:
                raise TierInsufficient(f"{node_id} is not a Consul")
        total = sum(1 for r in self.governors.values() if tier_promotion(r, now) is Tier.Consul)
        return len(consuls), max(1, ceil_share(VETO_SHARE, total))

    def veto(self, proposal_id: str, consuls: list[str], now: int) -> bool:
        """Whether the Consuls named veto an approved decision; a vetoed one is Declined."""
        proposal = self.proposals[proposal_id]
        if proposal.state is not ProposalState.Approved:
            raise NotApproved(f"{proposal_id} is {proposal.state.value}")
        if proposal.approval_count >= 3:
            raise VetoExhausted("approved three times; the decision stands")
        backing, needed = self._consul_backing(consuls, now)
        vetoed = backing >= needed
        if vetoed:
            proposal.state = ProposalState.Declined
        return vetoed

    def route_to_formation(self, proposal_id: str, consuls: list[str], now: int) -> bool:
        """Hand an approved proposal to the grant vault; return whether the grant
        was Consul-gated: in the first four years of Vortex time, which starts at
        genesis 0, it also needs 66% of the DAO's Consuls behind it."""
        proposal = self.proposals[proposal_id]
        if proposal.state is not ProposalState.Approved:
            raise NotApproved(f"{proposal_id} is {proposal.state.value}")
        backing, needed = self._consul_backing(consuls, now)
        gated = now < FORMATION_CONSUL_GATE_SECONDS
        if gated and backing < needed:
            raise ConsulApprovalMissing(f"{backing} consuls; need {needed}")
        return gated
