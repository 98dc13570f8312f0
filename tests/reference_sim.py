"""A plain whole-run loop: the simulator's executable spec.

reference_run(cfg) plays a config that validate() accepts the slow, obvious
way. Every slot it visits every node in id order and reads its standing by
scanning plain records in full: the ticket expiry and deadline dicts, every
Blacklist entry, every fault window. It has no wake-up calendar, no
incremental roster and no index of listed nodes. The phases run in the
simulator's order: per slot renewals, slashes and the author; per epoch
uptime slashes, the fee split, the Fath rebase and the scripted proposals.
Bioauth takes the scripted outcome; with the crypto pipeline on, the
simulator raises InvariantViolation if the encrypted match disagrees.
Only distribute_fees, fath.run_period, Blacklist.slash and to_record, and a
Vortex seated here from cfg.governance are shared with the simulator.
"""

import json
from collections import Counter

from bionode.fath import LedgerSnapshot, PeriodStats, run_period
from bionode.netsim import OFFLINE_LIMIT_SECONDS, UPTIME_FLOOR, distribute_fees
from bionode.slashing import Blacklist, Effect, PerpetrationKind
from bionode.vortex import Role, Tier, TierInsufficient, Vortex, pool_threshold


def reference_run(cfg) -> tuple[list[str], dict[str, int], int]:
    """Play cfg; return its event log's lines, the final balances and the vault."""
    ids, spe, secs, month, gov = cfg.node_ids, cfg.slots_per_epoch, cfg.slot_seconds, cfg.month_slots, cfg.governance
    dao = Vortex()  # every node registered, the governors seated as Citizens, then tiers and delegations
    for nid in ids:
        dao.register_human_node(nid, now=0)
    for nid in ids if gov.governors == "all" else gov.governors:
        dao.promote_to_governor(nid, now=0)
        dao.seat_tier(nid, Tier.Citizen, now=0)
    for nid, tier in gov.tiers:
        dao.seat_tier(nid, tier, now=0)
    for delegator, delegatee in gov.delegations:
        dao.delegate(delegator, delegatee)
    roll = sorted(nid for nid, r in dao.governors.items() if r.role is Role.Governor)
    expiry, deadline = dict.fromkeys(ids, 0), dict.fromkeys(ids, month)
    blacklist, ledger, vault, log = Blacklist(), LedgerSnapshot(dict.fromkeys(ids, cfg.initial_balance)), 0, []

    def emit(slot: int, kind: str, data: dict) -> None:
        log.append(json.dumps({"slot": slot, "seq": len(log), "kind": kind, "data": data}, sort_keys=True))

    def covering(windows, slot: int) -> set[str]:
        return {w.node for w in windows if w.from_slot <= slot < w.to_slot}

    def suspended(slot: int, effect: Effect | None = None) -> set[str]:
        """The nodes an entry covers at slot; given an effect, only entries that carry it."""
        return {e.node_id for e in blacklist.entries if e.covers(slot * secs) and (effect is None or effect in e.effects)}

    def slash(nid: str, kind: PerpetrationKind, slot: int) -> None:
        entry = blacklist.slash(nid, kind, slot * secs)
        if Effect.DevotionNullified in entry.effects:
            dao.nullify_devotion(nid, entry.issued_at)
        emit(slot, "Slashed", entry.to_record())

    for epoch in range(cfg.epochs):
        down = Counter()  # offline slots of each node in this epoch
        for slot in range(epoch * spe, (epoch + 1) * spe):
            offline = covering(cfg.offline, slot)
            down.update(offline)
            cannot_renew = offline | covering(cfg.bioauth_fail, slot) | suspended(slot)
            for nid in ids:
                if expiry[nid] <= slot and nid not in cannot_renew:
                    expiry[nid], deadline[nid] = slot + cfg.validity_slots, slot + month
                    emit(slot, "TicketRenewed", {"node": nid, "expiry_slot": expiry[nid]})
                elif expiry[nid] == slot > 0:
                    emit(slot, "TicketExpired", {"node": nid})
            for nid, at in cfg.false_transaction:
                if at == slot:
                    slash(nid, PerpetrationKind.FalseTransaction, slot)
            # offline for more than 48 hours by the end of this slot, and not by the end of the one before
            over_limit = {w.node for w in cfg.offline if w.from_slot <= slot < w.to_slot
                          and (slot - w.from_slot) * secs <= OFFLINE_LIMIT_SECONDS < (slot - w.from_slot + 1) * secs}
            for nid in ids:
                if nid in over_limit:
                    slash(nid, PerpetrationKind.Offline48h, slot)
            for nid in ids:
                if deadline[nid] == slot:
                    deadline[nid] = slot + month
                    slash(nid, PerpetrationKind.MissedMonthlyVerification, slot)
            barred = suspended(slot)
            roster = [nid for nid in ids if expiry[nid] > slot and nid not in offline and nid not in barred]
            if roster:
                emit(slot, "BlockAuthored", {"node": roster[slot % len(roster)]})
            else:
                emit(slot, "SlotSkipped", {})

        last = (epoch + 1) * spe - 1
        for nid in ids:
            if (spe - down[nid]) / spe < UPTIME_FLOOR:
                slash(nid, PerpetrationKind.UptimeBelow91, last)

        if total := cfg.fees_per_epoch[epoch]:
            stopped = suspended(last, Effect.FeesStopped)
            paid = [nid for nid in ids if nid not in stopped]
            balances, vault_delta, distributed = distribute_fees(total, paid, ledger.balances)
            ledger, vault = LedgerSnapshot(balances), vault + vault_delta
            emit(last, "FeesDistributed", {"epoch": epoch, "total": total, "vault_delta": vault_delta,
                                           "distributed": distributed, "recipients": len(paid)})

        k, fees = cfg.fath_period_epochs, cfg.fees_per_epoch
        if (epoch + 1) % k == 0 and epoch + 1 > k:  # a period closes, and one before it to compare with
            period = (epoch + 1) // k - 1
            prev = PeriodStats(sum(fees[(period - 1) * k : period * k]), period - 1)
            curr = PeriodStats(sum(fees[period * k : (period + 1) * k]), period)
            ledger, outcome = run_period(ledger, prev, curr)
            emit(last, "FathRebalance", outcome.to_record(period))

        now = last * secs
        for at, proposer, ptype, yes, no in gov.proposals:
            if at != epoch:
                continue
            try:
                proposal = dao.submit_proposal(proposer, ptype, now)
            except TierInsufficient:
                slash(proposer, PerpetrationKind.MismatchedProposalTypeNoRight, last)
                continue
            for governor in roll[: pool_threshold(len(roll))]:
                dao.pool_vote(governor, proposal.id, upvote=True, now=now)
            for i, voter in enumerate(roll[: yes + no]):
                dao.cast_vote(voter, proposal.id, yes=i < yes, now=now + 1)
            emit(last, "GovernanceTally", dao.tally(proposal.id, now=proposal.vote_deadline).to_record(proposal))

    return log, ledger.balances, vault
