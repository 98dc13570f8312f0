"""Deterministic discrete-event simulation of the node network.

Every node must hold a fresh biometric authentication ticket to take part
in block production; authoring itself is a fixed round-robin over the
slot-by-slot roster of authorized nodes. Epoch fee totals are injected by
the scenario script, split 98/2 between the active nodes (equally, with
largest-remainder apportionment) and the Formation vault, and feed the
proportional supply rebase every configured number of epochs. Offline
windows and scripted misbehavior produce blacklist entries that gate both
authoring and the fee stream.

The loop is single-threaded and consults no ambient clock or entropy:
identical configs produce byte-identical event logs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import biometrics, lwe, vortex
from .fath import LedgerSnapshot, PeriodStats, run_period
from .slashing import Blacklist, PerpetrationKind, apply_effects
from .vortex import TierInsufficient, Vortex

SLOT_SECONDS_DEFAULT = 6
MONTH_SECONDS = 2_630_016
OFFLINE_LIMIT_SECONDS = 48 * 3600
UPTIME_FLOOR = 0.91
VAULT_SHARE_PERCENT = 2


class ConfigInvalid(Exception):
    pass


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
    for i, nid in enumerate(roster):
        new_balances[nid] += base + (1 if i < rem else 0)
    return new_balances, vault_delta, to_nodes


@dataclass(frozen=True)
class OfflineWindow:
    node: str
    from_slot: int
    to_slot: int  # exclusive


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    num_nodes: int = 3
    slots_per_epoch: int = 60
    epochs: int = 2
    slot_seconds: int = SLOT_SECONDS_DEFAULT
    ticket_validity_slots: int | None = None  # default: one month of slots
    initial_balance: int = 1_000_000
    fees_per_epoch: tuple[int, ...] = ()
    fath_period_epochs: int = 1
    crypto_pipeline: bool = False
    offline: tuple[OfflineWindow, ...] = ()
    bioauth_fail: tuple[OfflineWindow, ...] = ()
    false_transaction: tuple[tuple[str, int], ...] = ()
    governance: dict | None = None

    @property
    def month_slots(self) -> int:
        return MONTH_SECONDS // self.slot_seconds

    @property
    def validity_slots(self) -> int:
        return self.ticket_validity_slots if self.ticket_validity_slots is not None else self.month_slots

    @property
    def node_ids(self) -> list[str]:
        width = max(2, len(str(self.num_nodes - 1)))
        return [f"node-{i:0{width}d}" for i in range(self.num_nodes)]

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        try:
            fees = doc.get("fees_per_epoch", 0)
            epochs = int(doc["epochs"])
            if isinstance(fees, int):
                fees = [fees] * epochs
            if len(fees) != epochs:
                raise ConfigInvalid("fees_per_epoch length must equal epochs")
            faults = doc.get("faults", {})
            validity = doc.get("ticket_validity_slots")
            return cls(
                seed=int(doc.get("seed", 0)),
                num_nodes=int(doc["num_nodes"]),
                slots_per_epoch=int(doc["slots_per_epoch"]),
                epochs=epochs,
                slot_seconds=int(doc.get("slot_seconds", SLOT_SECONDS_DEFAULT)),
                ticket_validity_slots=None if validity is None else int(validity),
                initial_balance=int(doc.get("initial_balance", 1_000_000)),
                fees_per_epoch=tuple(int(f) for f in fees),
                fath_period_epochs=int(doc.get("fath_period_epochs", 1)),
                crypto_pipeline=bool(doc.get("crypto_pipeline", False)),
                offline=tuple(
                    OfflineWindow(w["node"], int(w["from_slot"]), int(w["to_slot"]))
                    for w in faults.get("offline", ())
                ),
                bioauth_fail=tuple(
                    OfflineWindow(w["node"], int(w["from_slot"]), int(w["to_slot"]))
                    for w in faults.get("bioauth_fail", ())
                ),
                false_transaction=tuple(
                    (m["node"], int(m["slot"])) for m in faults.get("false_transaction", ())
                ),
                governance=doc.get("governance"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(str(exc)) from exc

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ConfigInvalid("need at least one node")
        if self.slots_per_epoch < 1 or self.epochs < 0:
            raise ConfigInvalid("bad epoch geometry")
        if self.slot_seconds < 1:
            raise ConfigInvalid("slot_seconds must be positive")
        if self.fath_period_epochs < 1:
            raise ConfigInvalid("fath_period_epochs must be positive")
        if any(f < 0 for f in self.fees_per_epoch):
            raise ConfigInvalid("fees cannot be negative")
        if self.ticket_validity_slots is not None and self.ticket_validity_slots < 1:
            raise ConfigInvalid("ticket_validity_slots must be positive")
        known = set(self.node_ids)
        windows = self.offline + self.bioauth_fail
        for node in [w.node for w in windows] + [node for node, _ in self.false_transaction]:
            if node not in known:
                raise ConfigInvalid(f"fault names unknown node {node}")
        for w in windows:
            if w.to_slot <= w.from_slot:
                raise ConfigInvalid(f"empty fault window for {w.node}: {w.from_slot}..{w.to_slot}")
        # Where one window of a node ends at the slot the next begins,
        # _apply_faults would act in list order, so windows may not touch.
        offline = sorted(self.offline, key=lambda w: (w.node, w.from_slot))
        for prev, nxt in zip(offline, offline[1:]):
            if prev.node == nxt.node and nxt.from_slot <= prev.to_slot:
                raise ConfigInvalid(f"offline windows for {nxt.node} overlap or touch")


@dataclass
class NodeState:
    node_id: str
    online: bool = True
    ticket_expiry_slot: int = 0
    last_renewal_slot: int | None = None
    verification_deadline_slot: int = 0
    offline_since: int | None = None
    offline_window_slashed: bool = False
    online_slots_this_epoch: int = 0
    blocks_authored: int = 0


@dataclass(frozen=True)
class SimEvent:
    slot: int
    seq: int
    kind: str
    data: dict

    def to_json(self) -> str:
        return json.dumps(
            {"slot": self.slot, "seq": self.seq, "kind": self.kind, "data": self.data},
            sort_keys=True,
        )


def _template_bits(node_id: str, n: int = 4) -> list[int]:
    digest = hashlib.sha256(node_id.encode()).digest()
    bits = [(digest[i // 8] >> (i % 8)) & 1 for i in range(n)]
    if not any(bits):
        bits[0] = 1  # a node's template is never empty
    return bits


class Simulation:
    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.nodes: dict[str, NodeState] = {}
        self.events: list[SimEvent] = []
        self.blacklist = Blacklist()
        self.dao = Vortex()
        self._seq = 0
        for node_id in config.node_ids:
            self.nodes[node_id] = NodeState(
                node_id=node_id,
                ticket_expiry_slot=0,
                verification_deadline_slot=config.month_slots,
            )
            self.dao.register_human_node(node_id, now=0)
        self.ledger = LedgerSnapshot(
            balances={nid: config.initial_balance for nid in self.nodes}
        )
        self.vault = 0
        self.period_fees: list[int] = []
        self._current_period_fees = 0
        self._setup_governance()
        if config.crypto_pipeline:
            self._lwe_params = lwe.PROFILES["test-exhaustive"]
            self._lwe_keys = lwe.lwe_keygen(self._lwe_params, config.seed)

    def _setup_governance(self) -> None:
        gov = self.config.governance
        if not gov:
            return
        try:
            chosen = gov.get("governors", "all")
            members = sorted(self.nodes) if chosen == "all" else list(chosen)
            for nid in members:
                if nid not in self.nodes:
                    raise ConfigInvalid(f"governance names unknown node {nid}")
                self.dao.promote_to_governor(nid, now=0)
                self.dao.governors[nid].has_approved_proposal = True
            for nid, tier_name in gov.get("tiers", {}).items():
                self.dao.governors[nid].tier = vortex.Tier[tier_name]
            for delegator, delegatee in gov.get("delegations", ()):
                self.dao.delegate(delegator, delegatee)
        except (KeyError, vortex.VortexError) as exc:
            raise ConfigInvalid(f"bad governance section: {exc}") from exc

    # -- event plumbing ----------------------------------------------------

    def _emit(self, slot: int, kind: str, data: dict) -> None:
        self.events.append(SimEvent(slot=slot, seq=self._seq, kind=kind, data=data))
        self._seq += 1

    def _now(self, slot: int) -> int:
        return slot * self.config.slot_seconds

    # -- per-slot mechanics --------------------------------------------------

    def _apply_faults(self, slot: int) -> None:
        for w in self.config.offline:
            node = self.nodes[w.node]
            if slot == w.from_slot and node.online:
                node.online = False
                node.offline_since = slot
                node.offline_window_slashed = False
            if slot == w.to_slot and not node.online:
                node.online = True
                node.offline_since = None

    def _bioauth_scripted_fail(self, node_id: str, slot: int) -> bool:
        return any(
            w.node == node_id and w.from_slot <= slot < w.to_slot
            for w in self.config.bioauth_fail
        )

    def _bioauth_passes(self, node_id: str, slot: int) -> bool:
        scripted_fail = self._bioauth_scripted_fail(node_id, slot)
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
        node.last_renewal_slot = slot
        node.verification_deadline_slot = slot + self.config.month_slots
        self._emit(slot, "TicketRenewed", {
            "node": node.node_id,
            "expiry_slot": node.ticket_expiry_slot,
        })
        return node

    def _try_renewals(self, slot: int) -> None:
        for node in self.nodes.values():
            if node.ticket_expiry_slot > slot:
                continue  # ticket still fresh
            expired_now = node.ticket_expiry_slot == slot and slot > 0
            renewed = False
            if node.online:
                try:
                    self.renew_ticket(node.node_id, slot)
                    renewed = True
                except (Blacklisted, BioauthFailed):
                    pass
            if expired_now and not renewed:
                self._emit(slot, "TicketExpired", {"node": node.node_id})

    def _slash(self, node_id: str, kind: PerpetrationKind, slot: int) -> None:
        entry = self.blacklist.slash(node_id, kind, self._now(slot))
        apply_effects(entry, self.dao.governors)
        self._emit(slot, "Slashed", entry.to_record())

    def _check_misbehavior(self, slot: int) -> None:
        for node_id, at_slot in self.config.false_transaction:
            if at_slot == slot:
                self._slash(node_id, PerpetrationKind.FalseTransaction, slot)
        for node in self.nodes.values():
            if node.online or node.offline_since is None or node.offline_window_slashed:
                continue
            # the current slot is already being spent offline, hence the +1
            offline_seconds = (slot - node.offline_since + 1) * self.config.slot_seconds
            if offline_seconds > OFFLINE_LIMIT_SECONDS:
                node.offline_window_slashed = True
                self._slash(node.node_id, PerpetrationKind.Offline48h, slot)
        for node in self.nodes.values():
            if slot >= node.verification_deadline_slot:
                node.verification_deadline_slot = slot + self.config.month_slots
                self._slash(node.node_id, PerpetrationKind.MissedMonthlyVerification, slot)

    def authorized_roster(self, slot: int) -> list[str]:
        now = self._now(slot)
        return sorted(
            node.node_id
            for node in self.nodes.values()
            if node.online
            and node.ticket_expiry_slot > slot
            and not self.blacklist.is_blacklisted(node.node_id, now)
        )

    def _author_block(self, slot: int) -> None:
        author = next_author(slot, self.authorized_roster(slot))
        if author is None:
            self._emit(slot, "SlotSkipped", {})
            return
        node = self.nodes[author]
        if self.blacklist.is_blacklisted(author, self._now(slot)) or node.ticket_expiry_slot <= slot:
            raise InvariantViolation(f"unauthorized author {author} at slot {slot}")
        node.blocks_authored += 1
        self._emit(slot, "BlockAuthored", {"node": author})

    # -- per-epoch mechanics ---------------------------------------------------

    def _check_uptime(self, slot: int) -> None:
        for node in self.nodes.values():
            ratio = node.online_slots_this_epoch / self.config.slots_per_epoch
            if ratio < UPTIME_FLOOR:
                self._slash(node.node_id, PerpetrationKind.UptimeBelow91, slot)
            node.online_slots_this_epoch = 0

    def _distribute_fees(self, epoch: int, slot: int) -> None:
        total = self.config.fees_per_epoch[epoch]
        self._current_period_fees += total
        if total == 0:
            return
        now = self._now(slot)
        eligible = sorted(nid for nid in self.nodes if not self.blacklist.fees_stopped(nid, now))
        balances, vault_delta, distributed = distribute_fees(
            total, eligible, self.ledger.balances
        )
        if eligible:
            self.ledger = LedgerSnapshot(balances=balances)
        self.vault += vault_delta
        if distributed + vault_delta != total:
            raise InvariantViolation("fee distribution lost units")
        self._emit(slot, "FeesDistributed", {
            "epoch": epoch,
            "total": total,
            "vault_delta": vault_delta,
            "distributed": distributed,
            "recipients": len(eligible),
        })

    def _maybe_rebalance(self, epoch: int, slot: int) -> None:
        if (epoch + 1) % self.config.fath_period_epochs != 0:
            return
        self.period_fees.append(self._current_period_fees)
        self._current_period_fees = 0
        period = len(self.period_fees) - 1
        if period == 0:
            return
        prev = PeriodStats(fees_paid=self.period_fees[period - 1], period_index=period - 1)
        curr = PeriodStats(fees_paid=self.period_fees[period], period_index=period)
        self.ledger, outcome = run_period(self.ledger, prev, curr)
        self._emit(slot, "FathRebalance", outcome.to_record(period))

    def _run_governance(self, epoch: int, slot: int) -> None:
        """Play the epoch's scripted proposals through the DAO.

        Voting weeks run on the DAO's own clock (the tally happens at the
        proposal's deadline regardless of how short the simulated epochs
        are); tally records land in the event log. A scripted proposal the
        proposer had no right to make becomes a slashing perpetration.
        """
        gov = self.config.governance or {}
        scripted = [p for p in gov.get("proposals", ()) if p.get("epoch") == epoch]
        if not scripted:
            return
        now = self._now(slot)
        for item in scripted:
            ptype = vortex.ProposalType[item["type"]]
            try:
                proposal = self.dao.submit_proposal(item["proposer"], ptype, now)
            except TierInsufficient:
                while self.dao.pending_perpetrations:
                    nid, kind = self.dao.pending_perpetrations.pop(0)
                    if nid in self.nodes:
                        self._slash(nid, kind, slot)
                continue
            except vortex.VortexError as exc:
                raise ConfigInvalid(f"scripted proposal failed: {exc}") from exc
            governors = [
                nid
                for nid in sorted(self.dao.governors)
                if self.dao.governors[nid].role is vortex.Role.Governor
            ]
            try:
                needed = item.get(
                    "pool_upvotes", vortex.pool_threshold(self.dao.governor_count())
                )
                for voter in governors[:needed]:
                    self.dao.pool_vote(voter, proposal.id, upvote=True, now=now)
                yes, no = int(item.get("yes", 0)), int(item.get("no", 0))
                for voter in governors[:yes]:
                    self.dao.cast_vote(voter, proposal.id, yes=True, now=now + 1)
                for voter in governors[yes : yes + no]:
                    self.dao.cast_vote(voter, proposal.id, yes=False, now=now + 1)
                result = self.dao.tally(proposal.id, now=proposal.vote_deadline)
            except vortex.VortexError as exc:
                raise ConfigInvalid(f"scripted vote failed: {exc}") from exc
            self._emit(slot, "GovernanceTally", result.to_record(proposal))

    # -- driving -----------------------------------------------------------

    def run(self) -> "Simulation":
        cfg = self.config
        for epoch in range(cfg.epochs):
            for s in range(cfg.slots_per_epoch):
                slot = epoch * cfg.slots_per_epoch + s
                self._apply_faults(slot)
                self._try_renewals(slot)
                self._check_misbehavior(slot)
                self._author_block(slot)
                for node in self.nodes.values():
                    node.online_slots_this_epoch += int(node.online)
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
        authored = {nid: n.blocks_authored for nid, n in sorted(self.nodes.items())}
        return {
            "config": {
                "seed": self.config.seed,
                "num_nodes": self.config.num_nodes,
                "slots_per_epoch": self.config.slots_per_epoch,
                "epochs": self.config.epochs,
                "slot_seconds": self.config.slot_seconds,
                "fath_period_epochs": self.config.fath_period_epochs,
            },
            "blocks_per_node": authored,
            "skipped_slots": sum(1 for e in self.events if e.kind == "SlotSkipped"),
            "fees_injected": sum(self.config.fees_per_epoch),
            "vault_balance": self.vault,
            "final_balances": dict(sorted(self.ledger.balances.items())),
            "final_supply": self.ledger.total_supply,
            "rebalances": self._records("FathRebalance"),
            "slashes": self._records("Slashed"),
            "tallies": self._records("GovernanceTally"),
            "governors": {
                nid: {"role": rec.role.value, "tier": rec.tier.name}
                for nid, rec in sorted(self.dao.governors.items())
            },
            "event_count": len(self.events),
        }


def run(config: SimConfig) -> Simulation:
    return Simulation(config).run()


def load_scenario(path: str) -> SimConfig:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigInvalid("scenario must be a JSON object")
    return SimConfig.from_dict(doc)
