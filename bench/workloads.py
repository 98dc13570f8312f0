"""Seeded inputs, timed operations and output checks for the three workloads.

Each workload is a closed loop: one caller in one process, no threads; the
next operation starts when the previous one returns. All inputs derive from
the seed, and the library sees only the generated inputs. Every call into
the library goes through a module attribute (``netsim.run``, not a name
imported from it), so the traced run can swap in its wrappers.

A workload exposes:

* ``params``: the generated sizes, printed with the run;
* ``op(i)``: one timed operation, returning what ``check`` needs;
* ``units``: how many workload units one ``op`` completes: simulated slots,
  epoch closes (two per op) or renewals (one per op);
* ``check(result)``: the number of units whose output was wrong;
* ``laps(result)``: seconds per kind of call inside the op, if it has kinds;
* ``gauges(results)``: per-layer values read off a traced unit's results;
* ``reset()`` and ``trace_ops``: the fixed unit of work the traced run
  repeats from the same starting state;
* ``reference_parts``: the parts of the reference kernel (``reference.py``)
  that stand for the op's kind of work and calibrate its time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from time import perf_counter

from bionode import biometrics, fath, groups, lwe, netsim, vortex, zkp

MONTH_SECONDS = 2_630_016
WEEK_SECONDS = 604_800


def round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def ceil_share(percent: int, count: int) -> int:
    return -(-percent * count // 100)


def vote_split(voters: int, epoch: int) -> tuple[int, int]:
    """Yes and no votes for an epoch's proposal: 40/15% of the voters, which
    approves, alternating with 30/25%, which does not. Each vote costs more
    the more votes came before it, so the total is the same every epoch."""
    return (voters * 2 // 5, voters * 3 // 20) if epoch % 2 == 0 else (voters * 3 // 10, voters // 4)


# -- sim-churn ---------------------------------------------------------------

# Window lengths in hours, cycled over the faulty nodes so every seed has the
# same mix; offline windows past 48 h trigger the Offline48h slash.
OFFLINE_HOURS = (6, 12, 24, 36, 48, 60, 72, 96, 120, 168)
BIOAUTH_FAIL_HOURS = (24, 48, 96, 168, 336)


class SimChurn:
    """netsim.run on a generated 1000-node network with hour-long slots."""

    name = "sim-churn"
    # interpreted scans of small objects; no big integers
    reference_parts = ("scan",)

    def __init__(self, seed: int, quick: bool):
        rng = random.Random(f"sim-churn:{seed}")
        n = 60 if quick else 1000
        slots_per_epoch = 24
        epochs = 5 if quick else 12
        total = slots_per_epoch * epochs
        width = max(2, len(str(n - 1)))
        ids = [f"node-{i:0{width}d}" for i in range(n)]
        k_off, k_bio, k_ft, k_del = n // 10, n // 20, max(1, n // 100), n // 20
        picked = rng.sample(ids, k_off + k_bio + k_ft)
        offline_nodes = picked[:k_off]
        bio_nodes = picked[k_off : k_off + k_bio]
        ft_nodes = picked[k_off + k_bio :]

        # The lookup cost grows with the entries already in the blacklist, so
        # fault times drawn uniformly would make the cost swing with the seed.
        # Faults start at evenly spread times instead, with window lengths in
        # a fixed order; the seed picks the nodes and a jitter in each stride.
        def starts(count):
            stride = total / count
            return [int(i * stride + rng.random() * stride) for i in range(count)]

        def windows(nodes, hours):
            return [
                {"node": node, "from_slot": start, "to_slot": start + hours[i % len(hours)]}
                for i, (node, start) in enumerate(zip(nodes, starts(len(nodes))))
            ]

        pair_pool = rng.sample(ids, 2 * k_del)
        delegations = [[a, b] for a, b in zip(pair_pool[:k_del], pair_pool[k_del:])]
        delegators = {a for a, _ in delegations}
        voters = [nid for nid in ids if nid not in delegators]
        proposals = []
        for epoch in range(epochs):
            yes, no = vote_split(len(voters), epoch)
            proposals.append({
                "epoch": epoch,
                "proposer": rng.choice(voters),
                # every eighth proposal is above a Citizen's tier: a slash
                "type": "FeeDistribution" if epoch % 8 == 7 else "Product",
                "yes": yes,
                "no": no,
            })
        base_fee = 1_000_000
        fees = [
            base_fee * (100 + rng.randint(5, 30)) // 100 if e % 2 else base_fee
            for e in range(epochs)
        ]
        doc = {
            "seed": seed,
            "num_nodes": n,
            "slots_per_epoch": slots_per_epoch,
            "epochs": epochs,
            "slot_seconds": 3600,
            "ticket_validity_slots": 48 if quick else 168,
            "initial_balance": 1_000_000,
            "fees_per_epoch": fees,
            "fath_period_epochs": 1,
            "crypto_pipeline": False,
            "faults": {
                "offline": windows(offline_nodes, OFFLINE_HOURS),
                "bioauth_fail": windows(bio_nodes, BIOAUTH_FAIL_HOURS),
                "false_transaction": [
                    {"node": nid, "slot": slot} for nid, slot in zip(ft_nodes, starts(k_ft))
                ],
            },
            "governance": {
                "governors": "all",
                "delegations": delegations,
                "proposals": proposals,
            },
        }
        self.config = netsim.SimConfig.from_dict(doc)
        self.units = total
        self.trace_ops = 1
        self.event_sha256 = None
        self.params = {
            "nodes": n, "slots": total, "slot_seconds": 3600,
            "ticket_validity_slots": doc["ticket_validity_slots"],
            "offline_nodes": k_off, "bioauth_fail_nodes": k_bio,
            "false_transaction_nodes": k_ft, "delegations": k_del,
            "proposals": epochs, "crypto_pipeline": False,
        }

    def reset(self) -> None:
        pass

    def op(self, i: int):
        return netsim.run(self.config)

    def check(self, sim) -> int:
        """Replay the event log: count slots with an unauthorized author, a
        missing or doubled slot outcome, or broken conservation; a run whose
        log differs from the first run's fails every slot."""
        cfg = self.config
        digest = hashlib.sha256(sim.event_log().encode()).hexdigest()
        if self.event_sha256 is None:
            self.event_sha256 = digest
        elif digest != self.event_sha256:
            return self.units
        bad: set[int] = set()
        outcomes = [0] * self.units
        expiry: dict[str, int] = {}
        blocked_until: dict[str, float] = {}
        supply = cfg.num_nodes * cfg.initial_balance
        vault = fees = 0
        for e in sim.events:
            d = e.data
            if e.kind == "TicketRenewed":
                expiry[d["node"]] = d["expiry_slot"]
            elif e.kind == "Slashed":
                months = d["period_months"]
                until = math.inf if months == "forever" else (
                    d["issued_at"] + int(Fraction(months) * MONTH_SECONDS)
                )
                blocked_until[d["node"]] = max(blocked_until.get(d["node"], 0), until)
            elif e.kind in ("BlockAuthored", "SlotSkipped"):
                outcomes[e.slot] += 1
                if e.kind == "BlockAuthored":
                    now = e.slot * cfg.slot_seconds
                    node = d["node"]
                    if expiry.get(node, 0) <= e.slot or now < blocked_until.get(node, 0):
                        bad.add(e.slot)
            elif e.kind == "FeesDistributed":
                if d["distributed"] + d["vault_delta"] != d["total"]:
                    bad.add(e.slot)
                supply += d["distributed"]
                vault += d["vault_delta"]
                fees += d["total"]
            elif e.kind == "FathRebalance":
                ratio = Fraction(d["ratio_num"], d["ratio_den"])
                if d["new_supply"] != round_half_up(supply * (1 + ratio)):
                    bad.add(e.slot)
                supply = d["new_supply"]
        bad.update(slot for slot, count in enumerate(outcomes) if count != 1)
        report = sim.report()
        if (
            supply != report["final_supply"]
            or sum(report["final_balances"].values()) != supply
            or vault != report["vault_balance"]
            or fees != report["fees_injected"]
        ):
            bad.add(self.units - 1)
        return len(bad)

    def laps(self, result) -> dict:
        return {}

    def gauges(self, results) -> dict:
        return {"slashing.blacklist_entries": sum(len(s.blacklist.entries) for s in results)}


# -- epoch-close -------------------------------------------------------------


# Fees alternate between these two totals, so the rebases alternate between
# inFath and outFath, which cost different amounts. An op is one such pair,
# which makes every op the same work.
FEE_LEVELS = (10_000_000, 10_700_000)


@dataclasses.dataclass(frozen=True)
class EpochPlan:
    prev_fees: int
    fees: int
    proposer: str
    pool_voters: tuple[str, ...]
    yes_voters: tuple[str, ...]
    no_voters: tuple[str, ...]


class EpochClose:
    """Fee split, Fath rebase and one governance round per epoch, at ledger scale."""

    name = "epoch-close"
    # interpreted loops over accounts and votes; the integers stay small
    reference_parts = ("scan",)
    PLANNED_EPOCHS = 64

    def __init__(self, seed: int, quick: bool):
        rng = random.Random(f"epoch-close:{seed}")
        n_acct = 2_000 if quick else 100_000
        n_roster = 200 if quick else 10_000
        n_gov = 100 if quick else 3_000
        accounts = [f"acct-{i:06d}" for i in range(n_acct)]
        self.ledger0 = fath.LedgerSnapshot(
            balances={a: rng.randrange(10**5, 10**7) for a in accounts}
        )
        self.roster = sorted(rng.sample(accounts, n_roster))
        self.governors = [f"gov-{i:04d}" for i in range(n_gov)]
        pair_pool = rng.sample(self.governors, 2 * (n_gov // 20))
        half = len(pair_pool) // 2
        self.delegations = list(zip(pair_pool[:half], pair_pool[half:]))
        delegators = {a for a, _ in self.delegations}
        active = [g for g in self.governors if g not in delegators]
        self.power = {g: 1 for g in active}
        for _, delegatee in self.delegations:
            self.power[delegatee] += 1
        needed = ceil_share(22, len(active))
        self.plans = []
        for e in range(self.PLANNED_EPOCHS):
            yes, no = vote_split(len(active), e)
            order = rng.sample(active, max(needed, yes + no))
            self.plans.append(EpochPlan(
                prev_fees=FEE_LEVELS[e % 2],
                fees=FEE_LEVELS[(e + 1) % 2],
                proposer=rng.choice(active),
                pool_voters=tuple(order[:needed]),
                yes_voters=tuple(order[:yes]),
                no_voters=tuple(order[yes : yes + no]),
            ))
        self.units = 2
        self.trace_ops = 1
        self.params = {
            "accounts": n_acct, "roster": n_roster, "governors": n_gov,
            "delegations": len(self.delegations), "pool_votes_per_epoch": needed,
            "fees": list(FEE_LEVELS),
        }
        self.reset()

    def reset(self) -> None:
        self.ledger = self.ledger0
        self.now = 0
        self.dao = vortex.Vortex()
        for g in self.governors:
            self.dao.register_human_node(g, now=0)
            self.dao.promote_to_governor(g, now=0)
        for delegator, delegatee in self.delegations:
            self.dao.delegate(delegator, delegatee)

    def op(self, i: int):
        """Two epoch closes: fees rise (inFath), then fall back (outFath)."""
        return [self.close_epoch(2 * i), self.close_epoch(2 * i + 1)]

    def close_epoch(self, e: int):
        plan = self.plans[e % self.PLANNED_EPOCHS]
        before = self.ledger
        balances, vault_delta, distributed = netsim.distribute_fees(
            plan.fees, self.roster, before.balances
        )
        paid = fath.LedgerSnapshot(balances=balances)
        after, outcome = fath.run_period(
            paid,
            fath.PeriodStats(fees_paid=plan.prev_fees, period_index=e),
            fath.PeriodStats(fees_paid=plan.fees, period_index=e + 1),
        )
        dao, now = self.dao, self.now
        proposal = dao.submit_proposal(plan.proposer, vortex.ProposalType.Product, now)
        for g in plan.pool_voters:
            dao.pool_vote(g, proposal.id, upvote=True, now=now)
        for g in plan.yes_voters:
            dao.cast_vote(g, proposal.id, yes=True, now=now + 1)
        for g in plan.no_voters:
            dao.cast_vote(g, proposal.id, yes=False, now=now + 1)
        tally = dao.tally(proposal.id, now=proposal.vote_deadline)
        self.ledger = after
        self.now += 2 * WEEK_SECONDS
        return plan, before, paid, after, outcome, vault_delta, distributed, tally

    def check(self, result) -> int:
        """The number of epochs that broke conservation, the rebase rule or the tally rule."""
        return sum(self.check_epoch(epoch) for epoch in result)

    def check_epoch(self, result) -> int:
        plan, before, paid, after, outcome, vault_delta, distributed, tally = result
        ok = (
            distributed + vault_delta == plan.fees
            and vault_delta == plan.fees * 2 // 100
            and sum(paid.balances.values()) == before.total_supply + distributed
        )
        ratio = Fraction(plan.fees - plan.prev_fees, plan.prev_fees)
        factor = 1 + ratio
        ok = ok and outcome.ratio == ratio
        ok = ok and outcome.new_supply == round_half_up(paid.total_supply * factor)
        ok = ok and sum(after.balances.values()) == outcome.new_supply
        for acct in self.roster[:: max(1, len(self.roster) // 64)]:
            ok = ok and abs(after.balances[acct] - paid.balances[acct] * factor) < 1
        eligible = sum(self.power.values())
        yes = sum(self.power[g] for g in plan.yes_voters)
        cast = yes + sum(self.power[g] for g in plan.no_voters)
        quorum = cast * 100 >= 33 * eligible
        approved = quorum and yes * 100 >= 66 * cast
        ok = ok and (tally.eligible_power, tally.votes_cast, tally.yes) == (eligible, cast, yes)
        ok = ok and (tally.quorum_met, tally.approved) == (quorum, approved)
        return 0 if ok else 1

    def laps(self, result) -> dict:
        return {}

    def gauges(self, results) -> dict:
        return {}


# -- bioauth-crypto ----------------------------------------------------------

TEMPLATE_BITS = 32
N_INPUTS = 8


@dataclasses.dataclass(frozen=True)
class Renewal:
    key_seed: int
    template: tuple[int, ...]
    probes: tuple[tuple[int, ...], tuple[int, ...]]  # genuine, impostor
    threshold: int
    match_seeds: tuple[int, int]
    inputs: tuple[int, ...]
    nonces: tuple[int, ...]
    coefficients: tuple[int, ...]
    prove_seed: int
    tamper: str  # "output" | "coefficient"


def flip(bits, positions):
    out = list(bits)
    for p in positions:
        out[p] ^= 1
    return tuple(out)


class BioauthCrypto:
    """One renewal: enroll (keygen), a genuine and an impostor encrypted match,
    one window proof, and verification of the honest and a tampered copy."""

    name = "bioauth-crypto"
    # nearly all of it 1024-bit modular exponentiation
    reference_parts = ("modexp",)
    RENEWALS = 128

    def __init__(self, seed: int, quick: bool):
        rng = random.Random(f"bioauth-crypto:{seed}")
        self.lwe_params = lwe.PROFILES["default"]
        self.group = groups.generate_params(1024)
        self.pk = groups.keygen(self.group, rng.randrange(2**63)).pk
        # mixed-sign kernel: exactly one negative tap, so every window costs
        # the same number of full-size exponentiations
        kernel = [rng.randint(1, 5) for _ in range(3)]
        kernel[rng.randrange(3)] *= -1
        layouts = zkp.conv_as_linear(N_INPUTS, kernel)
        renewals = []
        for i in range(4 if quick else self.RENEWALS):
            template = tuple(rng.randint(0, 1) for _ in range(TEMPLATE_BITS))
            if sum(template) < 4:
                template = flip(template, rng.sample(range(TEMPLATE_BITS), 8))
            genuine = flip(template, rng.sample(range(TEMPLATE_BITS), rng.randint(0, 4)))
            impostor = flip(template, rng.sample(range(TEMPLATE_BITS), rng.randint(8, 16)))
            coefficients = tuple(rng.choice(layouts))
            while True:  # a negative output would cost one more full exponentiation
                inputs = tuple(rng.randint(0, 15) for _ in range(N_INPUTS))
                if sum(a * x for a, x in zip(coefficients, inputs)) >= 0:
                    break
            renewals.append(Renewal(
                key_seed=rng.randrange(2**63),
                template=template,
                probes=(genuine, impostor),
                # every fourth threshold sits exactly on the genuine score
                threshold=(
                    sum(a * b for a, b in zip(template, genuine)) if i % 4 == 0
                    else math.ceil(0.75 * sum(template))
                ),
                match_seeds=(rng.randrange(2**62), rng.randrange(2**62)),
                inputs=inputs,
                nonces=tuple(rng.randrange(1, self.group.q) for _ in range(N_INPUTS)),
                coefficients=coefficients,
                prove_seed=rng.randrange(2**63),
                tamper="output" if i % 2 else "coefficient",
            ))
        self.renewals = renewals
        self.units = 1
        self.trace_ops = 2 if quick else 6
        self.params = {
            "lwe_profile": "default", "template_bits": TEMPLATE_BITS,
            "group_bits": 1024, "inputs_per_proof": N_INPUTS, "kernel": kernel,
            "renewals_generated": len(renewals),
        }

    def reset(self) -> None:
        pass

    def op(self, i: int):
        r = self.renewals[i % len(self.renewals)]
        P, group, pk = self.lwe_params, self.group, self.pk
        clock = [perf_counter()]
        keys = lwe.lwe_keygen(P, r.key_seed)
        clock.append(perf_counter())
        matches = []
        for probe, seed in zip(r.probes, r.match_seeds):
            matches.append(biometrics.encrypted_match(
                P, keys, list(r.template), list(probe), r.threshold, rng_seed=seed
            ))
            clock.append(perf_counter())
        statement, proof = zkp.prove_linear(
            group, pk, list(r.inputs), list(r.nonces), list(r.coefficients), r.prove_seed
        )
        clock.append(perf_counter())
        honest = zkp.verify_linear(group, pk, statement, proof)
        clock.append(perf_counter())
        forged = zkp.verify_linear(group, pk, tamper(statement, r.tamper, group), proof)
        clock.append(perf_counter())
        laps = [b - a for a, b in zip(clock, clock[1:])]
        timings = {
            "enroll": [laps[0]], "match": laps[1:3], "prove": [laps[3]], "verify": laps[4:6],
        }
        return r, matches, honest, forged, timings

    def check(self, result) -> int:
        """1 if a match decision disagrees with the plaintext dot product, the
        honest proof is rejected, or the tampered one accepted."""
        r, matches, honest, forged, _ = result
        for probe, got in zip(r.probes, matches):
            dot = sum(a * b for a, b in zip(r.template, probe))
            want = biometrics.MatchResult.MATCH if dot >= r.threshold else biometrics.MatchResult.NO_MATCH
            if got is not want:
                return 1
        return 0 if honest and not forged else 1

    def laps(self, result) -> dict:
        """Seconds spent in each kind of call within one renewal."""
        return result[-1]

    def gauges(self, results) -> dict:
        return {"lwe.noise_margin": self.noise_margin(results)}

    def noise_margin(self, results) -> float:
        """min over the sampled matches of (q / 2t) / max |centred noise|.

        Rebuilds each product with the public lwe functions and the match's
        own seeds; a decision that disagrees with encrypted_match, or a
        decryption that is not plaintext + t * noise, gives a margin of 0.
        """
        P = self.lwe_params
        worst = math.inf
        for r, matches, *_ in results:
            keys = lwe.lwe_keygen(P, r.key_seed)
            n = len(r.template)
            for probe, seed, got in zip(r.probes, r.match_seeds, matches):
                fwd = lwe.encode_forward(P, list(r.template))
                rev = lwe.encode_reverse(P, list(probe))
                product = lwe.lwe_mul(
                    lwe.lwe_encrypt(P, keys.pk, fwd, seed),
                    lwe.lwe_encrypt(P, keys.pk, rev, seed + 1),
                )
                raw = lwe.decrypt_raw(P, keys.sk, product)
                plain = negacyclic_product(fwd, rev)
                noise = [(c - m) // P.t for c, m in zip(raw, plain)]
                decided = raw[n] % P.t >= r.threshold
                if any((c - m) % P.t for c, m in zip(raw, plain)) or decided != (
                    got is biometrics.MatchResult.MATCH
                ):
                    return 0.0
                worst = min(worst, (P.q / (2 * P.t)) / max(1, max(abs(v) for v in noise)))
        return worst


def negacyclic_product(a, b) -> list[int]:
    """Integer product in Z[x]/(x^d + 1), no modulus: the plaintext oracle."""
    d = len(a)
    out = [0] * d
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                k = i + j
                if k < d:
                    out[k] += x * y
                else:
                    out[k - d] -= x * y
    return out


def tamper(statement: zkp.LinearStatement, how: str, group: groups.GroupParams):
    """A copy of the statement that no honest proof should verify."""
    if how == "output":
        out = statement.output_ct
        forged = dataclasses.replace(out, d=out.d * group.g % group.p)
        return dataclasses.replace(statement, output_ct=forged)
    coeffs = list(statement.coefficients)
    first = next(i for i, a in enumerate(coeffs) if a)
    coeffs[first] += 1
    return dataclasses.replace(statement, coefficients=tuple(coeffs))


WORKLOADS = {w.name: w for w in (SimChurn, EpochClose, BioauthCrypto)}
