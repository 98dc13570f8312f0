"""Walkthrough: the governance state machine end to end.

A proposal is born into an anonymous pool, gets pulled into a one-week
vote once 22% of Governors react to it, passes with 66% of a 33% quorum,
survives (or not) a Consul veto, and finally routes to the grant vault.
Delegation moves single votes around without ever stacking.
"""

from bionode.vortex import (
    ProposalState,
    ProposalType,
    Tier,
    VetoExhausted,
    Vortex,
    WEEK_SECONDS,
    YEAR_SECONDS,
    min_approving_yes,
    pool_threshold,
    quorum_threshold,
    tier_promotion,
    voting_power,
)

dao = Vortex()
for i in range(100):
    node = f"g{i:03d}"
    dao.register_human_node(node, now=0)
    dao.promote_to_governor(node, now=0)
consuls = ["g097", "g098", "g099"]  # four governing years and Formation at genesis
for node in consuls:
    dao.seat_tier(node, Tier.Consul, now=0)

print("100 unit-power Governors:")
print(f"  pool threshold: {pool_threshold(100)} reactions")
print(f"  quorum: {quorum_threshold(100)} voting power")
print(f"  minimum yes that can ever approve: {min_approving_yes(100)}\n")

# --- pool -> vote -> approval ------------------------------------------------

p = dao.submit_proposal("g000", ProposalType.Product, now=0)
print(f"proposal {p.pseudonym} ({p.type.value}) submitted anonymously")

for i in range(22):
    dao.pool_vote(f"g{i:03d}", p.id, upvote=True, now=100)
print(f"after 22 pool reactions the state is {p.state.value}")

for i in range(22):
    dao.cast_vote(f"g{i:03d}", p.id, yes=True, now=200)
for i in range(22, 33):
    dao.cast_vote(f"g{i:03d}", p.id, yes=False, now=200)
result = dao.tally(p.id, now=200 + WEEK_SECONDS)
print(f"tally: {result.yes}/{result.votes_cast} cast of {result.eligible_power} "
      f"eligible -> approved={result.approved}\n")

# --- veto dynamics -----------------------------------------------------------

vetoed = dao.veto(p.id, consuls[:2], now=200 + WEEK_SECONDS)
print(f"2/3 Consuls veto: vetoed={vetoed}, state={p.state.value}")
p.state = ProposalState.Approved  # suppose the decision was approved twice more
p.approval_count = 3
try:
    dao.veto(p.id, consuls, now=200 + WEEK_SECONDS)
except VetoExhausted as exc:
    print(f"third approval: veto refused ({exc})\n")

# --- delegation --------------------------------------------------------------

for i in range(1, 6):
    dao.delegate(f"g{i:03d}", "g000")
rec = dao.governors["g000"]
print(f"g000 holds {len(rec.delegations_received)} delegations, "
      f"voting power {voting_power(rec)}")
dao.delegate("g001", "g099")  # re-delegation is instant
print(f"after g001 re-delegates: g000 power {voting_power(dao.governors['g000'])}, "
      f"g099 power {voting_power(dao.governors['g099'])}")
print(f"delegators vote through their delegatee "
      f"(g001 role: {dao.governors['g001'].role.value})\n")

# --- tiers grow with time and devotion ----------------------------------------

veteran = dao.governors["g000"]
dao.seat_tier("g000", Tier.Legate, now=2 * YEAR_SECONDS)  # governing since genesis, with Formation
for years in (0, 1, 2, 4):
    tier = tier_promotion(veteran, now=years * YEAR_SECONDS)
    print(f"  after {years} governing years (+Formation): {tier.name}")

# --- Formation gate in the early network ---------------------------------------

vault = 123_456
gated = dao.route_to_formation(p.id, consuls[:2], now=1 * YEAR_SECONDS)
print(f"\nyear-1 grant with 2/3 Consuls: granted (consul_gated={gated}, vault={vault:,})")
