"""Deterministic discrete-event simulation of the node network.

Every node must hold a fresh biometric authentication ticket to take part
in block production; authoring itself is a fixed round-robin over the
slot-by-slot roster of authorized nodes. Epoch fee totals are injected by
the scenario script, split 98/2 between the active nodes (equally, with
largest-remainder apportionment) and the Formation vault, and feed the
proportional supply rebase every configured number of epochs. Offline
windows and scripted misbehavior produce blacklist entries that gate both
authoring and the fee stream. Each fact has one record: tickets and
deadlines in ``NodeState``, suspensions in the ``Blacklist``, who is offline
or failing bioauth in the fault windows, and node ids, roles and devotion in
the ``Vortex`` the config seats, whose rules the loop never restates: pool
votes go down the Governor roll until the DAO moves a proposal to the vote.

Per-slot work follows what changes, not the node count: one calendar maps a
slot to the nodes to look at then (slot 0, both ends of each offline window,
ticket expiry, verification deadline, suspension end, and after a failed
bioauth the first end of a bioauth-fail window covering it, or the next slot if
none does), and what is due is read from the records. Only woken, renewed and
slashed nodes are offered a renewal or re-checked for the sorted roster.

The loop is single-threaded and consults no ambient clock or entropy:
identical configs produce byte-identical event logs.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import biometrics, lwe, vortex
from .groups import DocumentInvalid, doc_object, each, expected, field, fields, typed
from .fath import LedgerSnapshot, PeriodStats, run_period
from .slashing import MONTH_SECONDS, Blacklist, Effect, PerpetrationKind
from .vortex import TierInsufficient, Vortex

SLOT_SECONDS_DEFAULT = 6
OFFLINE_LIMIT_SECONDS = 48 * 3600
UPTIME_FLOOR = 0.91
VAULT_SHARE_PERCENT = 2
TEMPLATE_BITS = 4  # length of a node's biometric template in the crypto pipeline
MAX_NODES, MAX_SLOTS = 100_000, 1_000_000  # a scenario's size; slots count epochs x slots_per_epoch


class InvariantViolation(Exception):
    pass


class Blacklisted(Exception):
    pass


class BioauthFailed(Exception):
    pass


def next_author(slot: int, authorized_roster: list[str]) -> str | None:
    """Round-robin pick for the slot; None when nobody is authorized."""
    if not authorized_roster:
        return None
    return authorized_roster[slot % len(authorized_roster)]


def distribute_fees(
    total: int, roster: list[str], balances: dict[str, int]
) -> tuple[dict[str, int], int, int]:
    """Split an epoch's fees 98/2 between the roster and the vault.

    The vault share is floored; the rest is divided equally with the
    leftover units handed to the first nodes in roster order, so the sum
    of payouts plus the vault delta equals the total exactly. An empty
    roster sends everything to the vault. Returns (new balances,
    vault delta, amount distributed).
    """
    vault_delta = total * VAULT_SHARE_PERCENT // 100
    to_nodes = total - vault_delta
    if not roster:
        return dict(balances), total, 0
    base, rem = divmod(to_nodes, len(roster))
    new_balances = dict(balances)
    for nid in roster[:rem]:
        new_balances[nid] += base + 1
    for nid in roster[rem:]:
        new_balances[nid] += base
    return new_balances, vault_delta, to_nodes


def _int(value) -> int:
    """A JSON integer field: a bool, a string or a non-integral number is refused, not coerced."""
    if type(value) is int or type(value) is float and value.is_integer():  # type(True) is bool
        return int(value)
    raise expected("an integer", value)


def _name_of(enum):
    """The kind of a JSON string naming a member of enum."""
    def read(name):
        if isinstance(name, str) and name in enum.__members__:
            return enum[name]
        raise DocumentInvalid(f"{name!r:.40} is not one of {', '.join(enum.__members__)}", [])
    return read


_node, _bool = typed(str, "a node id"), typed(bool, "true or false")
_tier, _proposal_type = _name_of(vortex.Tier), _name_of(vortex.ProposalType)


def _check_size(num_nodes: int, slots_per_epoch: int, epochs: int) -> None:
    if num_nodes > MAX_NODES:
        raise DocumentInvalid(f"num_nodes is {num_nodes}, above the bound of {MAX_NODES}")
    if epochs * max(slots_per_epoch, 1) > MAX_SLOTS:  # an epoch has at least one slot
        raise DocumentInvalid(f"{epochs} epochs of {slots_per_epoch} slots are above the bound of {MAX_SLOTS} slots")


class OfflineWindow(NamedTuple):  # a named tuple: read-only, and cheap to build from a scenario
    node: str
    from_slot: int
    to_slot: int  # exclusive


class Governance(NamedTuple):
    """A scenario's Vortex section: the governors ("all" or their ids), tiers and
    delegations as pairs, and proposals as (epoch, proposer, type, yes, no)."""

    governors: str | tuple[str, ...] = ()  # the default section promotes nobody
    tiers: tuple[tuple[str, vortex.Tier], ...] = ()
    delegations: tuple[tuple[str, str], ...] = ()
    proposals: tuple[tuple[int, str, vortex.ProposalType, int, int], ...] = ()


def _pair(value) -> tuple[str, str]:
    if isinstance(value, list) and len(value) == 2 and isinstance(value[0], str) and isinstance(value[1], str):
        return tuple(value)
    raise expected("a [delegator, delegatee] pair of node ids", value)


def _proposal(doc) -> tuple[int, str, vortex.ProposalType, int, int]:
    if "pool_upvotes" in doc_object(doc):
        raise DocumentInvalid("cannot be set; the pool threshold upvotes every proposal", ["pool_upvotes"])
    return (field(doc, "epoch", _int), field(doc, "proposer", _node), field(doc, "type", _proposal_type),
            field(doc, "yes", _int, 0), field(doc, "no", _int, 0))


_GOVERNANCE = {"governors": lambda ids: ids if ids == "all" else each(_node)(ids),
               "tiers": lambda tiers: tuple((nid, field(tiers, nid, _tier)) for nid in doc_object(tiers)),
               "delegations": each(_pair), "proposals": each(_proposal)}


def read_governance(raw) -> Governance:
    """The governance section's JSON: null and {} mean none, and a section that
    names no governors promotes every node."""
    if raw is None or raw == {}:
        return Governance()
    return Governance(**{"governors": "all", **fields(raw, _GOVERNANCE)})


# The optional fields of a scenario and of its faults section, each read into SimConfig's argument of that name.
_SCENARIO = {"seed": _int, "slot_seconds": _int, "ticket_validity_slots": lambda n: None if n is None else _int(n),
             "initial_balance": _int, "fath_period_epochs": _int, "crypto_pipeline": _bool, "governance": read_governance}
_WINDOWS = each(lambda w: OfflineWindow(field(w, "node", _node), field(w, "from_slot", _int), field(w, "to_slot", _int)))
_FAULTS = {"offline": _WINDOWS, "bioauth_fail": _WINDOWS,
           "false_transaction": each(lambda tx: (field(tx, "node", _node), field(tx, "slot", _int)))}


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    num_nodes: int = 3
    slots_per_epoch: int = 60
    epochs: int = 2
    slot_seconds: int = SLOT_SECONDS_DEFAULT
    ticket_validity_slots: int | None = None  # default: one month of slots
    initial_balance: int = 1_000_000
    fees_per_epoch: tuple[int, ...] = (0, 0)
    fath_period_epochs: int = 1
    crypto_pipeline: bool = False
    offline: tuple[OfflineWindow, ...] = ()
    bioauth_fail: tuple[OfflineWindow, ...] = ()
    false_transaction: tuple[tuple[str, int], ...] = ()
    governance: Governance = Governance()

    @property
    def month_slots(self) -> int:
        return MONTH_SECONDS // self.slot_seconds

    @property
    def validity_slots(self) -> int:
        return self.ticket_validity_slots if self.ticket_validity_slots is not None else self.month_slots

    @property
    def node_ids(self) -> list[str]:
        width = max(2, len(str(self.num_nodes - 1)))
        return ["node-" + str(i).zfill(width) for i in range(self.num_nodes)]  # zfill: a quarter of a nested format's cost

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        """Read a scenario document: a field it leaves out keeps its default here, and a
        malformed one is refused with DocumentInvalid naming its path (groups.field)."""
        num_nodes, slots_per_epoch, epochs = (field(doc, k, _int) for k in ("num_nodes", "slots_per_epoch", "epochs"))
        _check_size(num_nodes, slots_per_epoch, epochs)

        def fees(value) -> tuple[int, ...]:  # a scalar is every epoch's fee; validate() refuses a negative epoch count
            return (_int(value),) * max(epochs, 0) if isinstance(value, (int, float)) else each(_int)(value)

        return cls(num_nodes=num_nodes, slots_per_epoch=slots_per_epoch, epochs=epochs,
                   fees_per_epoch=field(doc, "fees_per_epoch", fees, 0), **fields(doc, _SCENARIO),
                   **field(doc, "faults", lambda faults: fields(faults, _FAULTS), {}))

    def validate(self) -> tuple[Vortex, list[str]]:
        """Apply every cross-field rule and seat the governance section on a fresh
        Vortex, so Vortex's own delegation rules are never copied; return that DAO,
        which Simulation(config) runs on and takes the node ids from (each one
        registered in id order), and its Governor roll in id order."""
        _check_size(self.num_nodes, self.slots_per_epoch, self.epochs)
        if self.num_nodes < 1:
            raise DocumentInvalid("need at least one node")
        if self.slots_per_epoch < 1 or self.epochs < 0:
            raise DocumentInvalid("bad epoch geometry")
        if not 1 <= self.slot_seconds <= MONTH_SECONDS:
            raise DocumentInvalid(f"slot_seconds must be between 1 and a month ({MONTH_SECONDS})")
        if len(self.fees_per_epoch) != self.epochs:
            raise DocumentInvalid("fees_per_epoch length must equal epochs")
        if self.fath_period_epochs < 1:
            raise DocumentInvalid("fath_period_epochs must be positive")
        if any(f < 0 for f in self.fees_per_epoch):
            raise DocumentInvalid("fees cannot be negative")
        if self.initial_balance < 0:
            raise DocumentInvalid("initial_balance cannot be negative")
        if self.ticket_validity_slots is not None and self.ticket_validity_slots < 1:
            raise DocumentInvalid("ticket_validity_slots must be positive")
        periods = self.period_fees
        if any(prev and not curr for prev, curr in zip(periods, periods[1:])):
            raise DocumentInvalid("fees fall to zero over a Fath period: the rebase would wipe out the supply")
        ids = self.node_ids
        known = set(ids)
        windows = self.offline + self.bioauth_fail
        for node in [w.node for w in windows] + [node for node, _ in self.false_transaction]:
            if node not in known:
                raise DocumentInvalid(f"fault names unknown node {node}")
        if any(w.from_slot < 0 for w in windows) or any(s < 0 for _, s in self.false_transaction):
            raise DocumentInvalid("fault slots cannot be negative")
        for w in windows:
            if w.to_slot <= w.from_slot:
                raise DocumentInvalid(f"empty fault window for {w.node}: {w.from_slot}..{w.to_slot}")
        # Offline48h is fixed per window, so two touching windows would hide
        # a continuous stretch of more than 48 hours offline.
        offline = sorted(self.offline, key=lambda w: (w.node, w.from_slot))
        for prev, nxt in zip(offline, offline[1:]):
            if prev.node == nxt.node and nxt.from_slot <= prev.to_slot:
                raise DocumentInvalid(f"offline windows for {nxt.node} overlap or touch")
        gov = self.governance
        if not isinstance(gov, Governance):  # a raw section must go through read_governance
            raise DocumentInvalid(f"governance must be a Governance value, got {type(gov).__name__}")
        named = () if gov.governors == "all" else gov.governors
        for nid in [*named, *(nid for nid, _ in gov.tiers), *(nid for pair in gov.delegations for nid in pair)]:
            if nid not in known:
                raise DocumentInvalid(f"governance names unknown node {nid}")
        if bad := [tier for _, tier in gov.tiers if not isinstance(tier, vortex.Tier)]:
            raise DocumentInvalid(f"governance tiers must be Tier values, got {bad[0]!r}")
        dao = Vortex()
        for node_id in ids:
            dao.register_human_node(node_id, now=0)
        for node_id in ids if gov.governors == "all" else gov.governors:
            dao.promote_to_governor(node_id, now=0)
            dao.seat_tier(node_id, vortex.Tier.Citizen, now=0)
        for node_id, tier in gov.tiers:
            dao.seat_tier(node_id, tier, now=0)
        for i, (delegator, delegatee) in enumerate(gov.delegations):
            try:
                dao.delegate(delegator, delegatee)
            except vortex.VortexError as exc:  # a delegation Vortex refuses
                raise DocumentInvalid(str(exc), ["governance", "delegations", i]) from exc
        roll = sorted(nid for nid, r in dao.governors.items() if r.role is vortex.Role.Governor)
        for nid, _ in gov.tiers:  # a tier off the roll would have no effect but show in the report
            if nid not in roll:
                raise DocumentInvalid(f"governance gives a tier to {nid}, which is not on the governor roll")
        if gov.proposals and not roll:  # no Governor could pull a proposal out of the pool
            raise DocumentInvalid("governance scripts a proposal but names no governor")
        for epoch, proposer, _, yes, no in gov.proposals:
            if proposer not in known:  # the script names no nominator
                raise DocumentInvalid(f"a proposal's proposer {proposer!r} is not a node")
            if min(epoch, yes, no) < 0:  # the counts are slice bounds in _run_governance
                raise DocumentInvalid(f"a proposal's epoch and vote counts cannot be negative: {epoch, proposer, yes, no}")
            if yes + no > len(roll):
                raise DocumentInvalid(f"a proposal casts {yes + no} votes but there are {len(roll)} governors")
        return dao, roll

    @cached_property
    def period_fees(self) -> tuple[int, ...]:
        """Each whole Fath period's fee total, in order, summed once per config; a part-period has none."""
        k = self.fath_period_epochs
        return tuple(sum(self.fees_per_epoch[i : i + k]) for i in range(0, len(self.fees_per_epoch) - k + 1, k))


@dataclass
class NodeState:
    ticket_expiry_slot: int = 0
    verification_deadline_slot: int = 0


class SimEvent(NamedTuple):
    """One log record; a named tuple, so building one is cheap and its fields stay read-only."""

    slot: int
    seq: int
    kind: str
    data: dict

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)


def _template_bits(node_id: str) -> list[int]:
    digest = hashlib.sha256(node_id.encode()).digest()
    bits = [(digest[i // 8] >> (i % 8)) & 1 for i in range(TEMPLATE_BITS)]
    if not any(bits):
        bits[0] = 1  # a node's template is never empty
    return bits


def _covered(windows: dict[str, list[OfflineWindow]], node_id: str, slot: int) -> bool:
    """Whether one of node_id's windows (offline or bioauth-fail) covers slot."""
    return any(w.from_slot <= slot < w.to_slot for w in windows.get(node_id, ()))


class Simulation:
    """One run of a config. Building one is where the config is checked: validate()
    refuses it with DocumentInvalid or seats the DAO; run() raises only InvariantViolation."""

    def __init__(self, config: SimConfig):
        self.dao, self._roll = config.validate()  # the roll is set once, as the run changes no role
        self.config = config
        self.nodes = {nid: NodeState(verification_deadline_slot=config.month_slots) for nid in self.dao.governors}
        self.events: list[SimEvent] = []
        self.blacklist = Blacklist()
        self.ledger = LedgerSnapshot(balances=dict.fromkeys(self.nodes, config.initial_balance))
        self.vault = 0
        # the calendar: slot -> nodes to look at then, popped when the slot is processed
        self._wake: dict[int, set[str]] = defaultdict(set)
        self._wake[0], self._wake[config.month_slots] = set(self.nodes), set(self.nodes)
        self._roster: list[str] = []  # sorted; re-checked only for _touched nodes
        self._touched: set[str] = set()
        self._compile_faults()
        self._proposals: dict[int, list[tuple]] = defaultdict(list)  # epoch -> scripted proposals
        for epoch, *proposal in config.governance.proposals:
            self._proposals[epoch].append(proposal)
        if config.crypto_pipeline:
            self._lwe_params = lwe.PROFILES["test-exhaustive"]
            self._lwe_keys = lwe.lwe_keygen(self._lwe_params, config.seed)

    def _compile_faults(self) -> None:
        """Index the fault windows by node and wake each node at both ends of
        its offline windows; validate() rules out negative slots."""
        self._offline: dict[str, list[OfflineWindow]] = defaultdict(list)
        self._bioauth_fail: dict[str, list[OfflineWindow]] = defaultdict(list)
        for w in self.config.offline:
            self._offline[w.node].append(w)
            self._wake[w.from_slot].add(w.node)
            self._wake[w.to_slot].add(w.node)
        for w in self.config.bioauth_fail:
            self._bioauth_fail[w.node].append(w)
        # slot -> slashes: FalseTransaction in script order, then Offline48h in
        # node order at the slot that completes more than 48 hours offline
        self._scripted_slashes: dict[int, list[tuple[str, PerpetrationKind]]] = defaultdict(list)
        for node_id, slot in self.config.false_transaction:
            self._scripted_slashes[slot].append((node_id, PerpetrationKind.FalseTransaction))
        limit = OFFLINE_LIMIT_SECONDS // self.config.slot_seconds
        for w in sorted(self.config.offline, key=lambda w: w.node):  # ids sort in node order
            if w.from_slot + limit < w.to_slot:
                self._scripted_slashes[w.from_slot + limit].append((w.node, PerpetrationKind.Offline48h))

    # -- event plumbing ----------------------------------------------------

    def _emit(self, slot: int, kind: str, data: dict) -> None:
        self.events.append(SimEvent(slot, len(self.events), kind, data))

    def _now(self, slot: int) -> int:
        return slot * self.config.slot_seconds

    # -- per-slot mechanics --------------------------------------------------

    def _bioauth_passes(self, node_id: str, slot: int) -> bool:
        scripted_fail = _covered(self._bioauth_fail, node_id, slot)
        if not self.config.crypto_pipeline:
            return not scripted_fail
        template = _template_bits(node_id)
        probe = [1 - b for b in template] if scripted_fail else template  # complement: wrong face
        result = biometrics.encrypted_match(
            self._lwe_params, self._lwe_keys, template, probe,
            threshold_count=sum(template), rng_seed=self.config.seed + slot,
        )
        matched = result is biometrics.MatchResult.MATCH
        if scripted_fail and matched:
            raise InvariantViolation("disjoint probe matched the template")
        return matched

    def renew_ticket(self, node_id: str, slot: int) -> NodeState:
        """Attempt a biometric re-authentication for one node.

        Raises Blacklisted while any suspension covers the node and
        BioauthFailed when the (scripted or encrypted-match) verification
        does not pass; on success the ticket extends by the configured
        validity and the monthly-verification deadline resets.
        """
        node = self.nodes[node_id]
        if self.blacklist.is_blacklisted(node_id, self._now(slot)):
            raise Blacklisted(node_id)
        if not self._bioauth_passes(node_id, slot):
            raise BioauthFailed(node_id)
        node.ticket_expiry_slot = slot + self.config.validity_slots
        node.verification_deadline_slot = slot + self.config.month_slots
        self._wake[node.ticket_expiry_slot].add(node_id)
        self._wake[node.verification_deadline_slot].add(node_id)
        self._touched.add(node_id)
        self._emit(slot, "TicketRenewed", {"node": node_id, "expiry_slot": node.ticket_expiry_slot})
        return node

    def _try_renewals(self, slot: int, woken: list[str]) -> None:
        """Offer a renewal to each woken online node whose ticket has expired. One that is
        offline or suspended waits for the end of the window or suspension to wake it;
        one that fails bioauth, for the first end of a bioauth-fail window covering the
        slot (the next slot if none does: a failed encrypted match)."""
        for node_id in woken:
            expiry = self.nodes[node_id].ticket_expiry_slot
            if expiry > slot:
                continue
            if not _covered(self._offline, node_id, slot):
                try:
                    self.renew_ticket(node_id, slot)
                    continue
                except Blacklisted:
                    pass
                except BioauthFailed:
                    ends = [w.to_slot for w in self._bioauth_fail.get(node_id, ()) if w.from_slot <= slot < w.to_slot]
                    self._wake[min(ends, default=slot + 1)].add(node_id)
            if expiry == slot > 0:
                self._emit(slot, "TicketExpired", {"node": node_id})

    def _slash(self, node_id: str, kind: PerpetrationKind, slot: int) -> None:
        entry = self.blacklist.slash(node_id, kind, self._now(slot))
        if Effect.DevotionNullified in entry.effects:  # the Vortex owns the record it resets
            self.dao.nullify_devotion(node_id, entry.issued_at)
        if entry.ends_at is not None:  # the first slot whose time reaches the end
            self._wake[-(-entry.ends_at // self.config.slot_seconds)].add(node_id)
        self._touched.add(node_id)
        self._emit(slot, "Slashed", entry.to_record())

    def _check_misbehavior(self, slot: int, woken: list[str]) -> None:
        for node_id, kind in self._scripted_slashes.pop(slot, ()):
            self._slash(node_id, kind, slot)
        # a deadline is always set after the slot being processed (validate()
        # keeps month_slots >= 1), so each node is woken exactly at its deadline
        for node_id in woken:
            node = self.nodes[node_id]
            if node.verification_deadline_slot == slot:
                node.verification_deadline_slot = slot + self.config.month_slots
                self._wake[node.verification_deadline_slot].add(node_id)
                self._slash(node_id, PerpetrationKind.MissedMonthlyVerification, slot)

    def authorized_roster(self, slot: int) -> list[str]:
        """Online nodes with a fresh ticket and no suspension, in id order.
        Only the nodes touched since the last slot are checked again, so
        slots must be asked for in order."""
        now, roster = self._now(slot), self._roster
        for node_id in self._touched:
            i = bisect_left(roster, node_id)
            listed = i < len(roster) and roster[i] == node_id
            authorized = (
                self.nodes[node_id].ticket_expiry_slot > slot
                and not _covered(self._offline, node_id, slot)
                and not self.blacklist.is_blacklisted(node_id, now)
            )
            if authorized and not listed:
                roster.insert(i, node_id)
            elif listed and not authorized:
                del roster[i]
        self._touched.clear()
        return list(roster)

    def _author_block(self, slot: int) -> None:
        author = next_author(slot, self.authorized_roster(slot))
        if author is None:
            self._emit(slot, "SlotSkipped", {})
            return
        node = self.nodes[author]
        if self.blacklist.is_blacklisted(author, self._now(slot)) or node.ticket_expiry_slot <= slot:
            raise InvariantViolation(f"unauthorized author {author} at slot {slot}")
        self._emit(slot, "BlockAuthored", {"node": author})

    # -- per-epoch mechanics ---------------------------------------------------

    def _check_uptime(self, slot: int) -> None:
        """Slash each node whose uptime in the epoch ending at slot is under the floor.
        Only nodes with an offline window are walked: any other node was up all epoch."""
        spe, offline = self.config.slots_per_epoch, Counter()
        for w in self.config.offline:  # each window's overlap with the epoch ending at slot
            offline[w.node] += max(0, min(w.to_slot, slot + 1) - max(w.from_slot, slot + 1 - spe))
        for node_id in sorted(offline):  # ids sort in node order
            if (spe - offline[node_id]) / spe < UPTIME_FLOOR:
                self._slash(node_id, PerpetrationKind.UptimeBelow91, slot)

    def _distribute_fees(self, epoch: int, slot: int) -> None:
        """Split the epoch's fees among the nodes whose fees are not stopped, in node
        order. The Blacklist is asked only about nodes with an entry; the rest are paid."""
        total = self.config.fees_per_epoch[epoch]
        if total == 0:
            return
        now, listed = self._now(slot), {e.node_id for e in self.blacklist.entries}
        eligible = [nid for nid in self.nodes if nid not in listed or not self.blacklist.fees_stopped(nid, now)]
        balances, vault_delta, distributed = distribute_fees(total, eligible, self.ledger.balances)
        if eligible:
            self.ledger = LedgerSnapshot(balances=balances)
        self.vault += vault_delta
        if distributed + vault_delta != total:
            raise InvariantViolation("fee distribution lost units")
        self._emit(slot, "FeesDistributed", {"epoch": epoch, "total": total, "vault_delta": vault_delta,
                                             "distributed": distributed, "recipients": len(eligible)})

    def _maybe_rebalance(self, epoch: int, slot: int) -> None:
        k = self.config.fath_period_epochs
        period = (epoch + 1) // k - 1  # the Fath period this epoch closes, if it closes one
        if (epoch + 1) % k or period == 0:  # period 0 has nothing to compare with
            return
        prev = PeriodStats(fees_paid=self.config.period_fees[period - 1], period_index=period - 1)
        curr = PeriodStats(fees_paid=self.config.period_fees[period], period_index=period)
        self.ledger, outcome = run_period(self.ledger, prev, curr)
        self._emit(slot, "FathRebalance", outcome.to_record(period))

    def _run_governance(self, epoch: int, slot: int) -> None:
        """Play the epoch's scripted proposals through the DAO.

        Each proposal takes one pool_votes call down the roll, which the DAO
        stops at its pool threshold, and two cast_votes calls: the first yes
        governors vote yes, the next no vote no. Voting weeks run on the DAO's
        own clock (the tally happens at the proposal's deadline regardless of
        how short the simulated epochs are); tally records land in the event
        log. validate() refused every bad proposal, so nothing is refused
        here; one above the proposer's tier becomes a
        MismatchedProposalTypeNoRight slash.
        """
        now, governors, dao = self._now(slot), self._roll, self.dao
        for proposer, ptype, yes, no in self._proposals.get(epoch, ()):
            try:
                proposal = dao.submit_proposal(proposer, ptype, now)
            except TierInsufficient:
                self._slash(proposer, PerpetrationKind.MismatchedProposalTypeNoRight, slot)
                continue
            dao.pool_votes(governors, proposal.id, upvote=True, now=now)
            dao.cast_votes(governors[:yes], proposal.id, yes=True, now=now + 1)
            dao.cast_votes(governors[yes : yes + no], proposal.id, yes=False, now=now + 1)
            result = dao.tally(proposal.id, now=proposal.vote_deadline)
            self._emit(slot, "GovernanceTally", result.to_record(proposal))

    # -- driving -----------------------------------------------------------

    def run(self) -> "Simulation":
        cfg = self.config
        for epoch in range(cfg.epochs):
            for s in range(cfg.slots_per_epoch):
                slot = epoch * cfg.slots_per_epoch + s
                woken = sorted(self._wake.pop(slot, ()))  # ids sort in node order
                self._touched.update(woken)
                self._try_renewals(slot, woken)
                self._check_misbehavior(slot, woken)
                self._author_block(slot)
            last_slot = (epoch + 1) * cfg.slots_per_epoch - 1
            self._check_uptime(last_slot)
            self._distribute_fees(epoch, last_slot)
            self._maybe_rebalance(epoch, last_slot)
            self._run_governance(epoch, last_slot)
        return self

    def event_log(self) -> str:
        return "\n".join(e.to_json() for e in self.events) + ("\n" if self.events else "")

    def _records(self, kind: str) -> list[dict]:
        return [e.data for e in self.events if e.kind == kind]

    def report(self) -> dict:
        now = self._now(max(0, self.config.epochs * self.config.slots_per_epoch - 1))  # tiers at the last slot
        authored = Counter(data["node"] for data in self._records("BlockAuthored"))
        return {
            "config": {key: getattr(self.config, key) for key in (
                "seed", "num_nodes", "slots_per_epoch", "epochs", "slot_seconds", "fath_period_epochs")},
            "blocks_per_node": {nid: authored[nid] for nid in sorted(self.nodes)},
            "skipped_slots": sum(1 for e in self.events if e.kind == "SlotSkipped"),
            "fees_injected": sum(self.config.fees_per_epoch),
            "vault_balance": self.vault,
            "final_balances": dict(sorted(self.ledger.balances.items())),
            "final_supply": self.ledger.total_supply,
            "rebalances": self._records("FathRebalance"),
            "slashes": self._records("Slashed"),
            "tallies": self._records("GovernanceTally"),
            "governors": {
                nid: {"role": rec.role.value, "tier": vortex.tier_promotion(rec, now).name}
                for nid, rec in sorted(self.dao.governors.items())
            },
            "event_count": len(self.events),
        }


def run(config: SimConfig) -> Simulation:
    return Simulation(config).run()


def load_scenario(path: str) -> SimConfig:
    """Read a scenario file and check its JSON shapes; Simulation(config) checks the rest."""
    with open(path) as fh:
        return SimConfig.from_dict(json.load(fh))
