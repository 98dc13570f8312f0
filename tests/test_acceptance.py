"""Acceptance suite: one test per release criterion, with pinned tolerances
and runtime budgets. Each test prints a PASS line on success (run with -s
or rely on pytest's captured output on failure)."""

import hashlib
import itertools
import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from bionode import biometrics, fees, lwe, netsim, zkp
from bionode.fath import LedgerSnapshot, PeriodStats, run_period
from bionode.groups import decrypt, encrypt_with_nonce, generate_params, keygen
from bionode.slashing import (
    FOREVER,
    PERPETRATION_TABLE,
    SCALING_LADDER_MONTHS,
    Blacklist,
    Effect,
    PerpetrationKind,
)
from bionode.vortex import (
    ProposalType,
    Tier,
    VetoExhausted,
    Vortex,
    approval_threshold,
    decide,
    min_approving_yes,
    pool_threshold,
    quorum_threshold,
)

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds, self.label = seconds, label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"{self.label}: {self.elapsed:.2f}s exceeds {self.seconds}s budget"
            )


def ok(msg: str) -> None:
    print(f"PASS: {msg}")


def test_criterion_1_fath_worked_example():
    with Budget(1.0, "fath") as b:
        ledger = LedgerSnapshot(balances={"you": 1_000, "rest": 9_999_000})
        fee_path = [1_000_000, 2_000_000, 1_500_000]
        supply_path, wallet_path = [ledger.total_supply], [ledger.balances["you"]]
        for year in (1, 2):
            ledger, _ = run_period(
                ledger,
                PeriodStats(fee_path[year - 1], year - 1),
                PeriodStats(fee_path[year], year),
            )
            supply_path.append(ledger.total_supply)
            wallet_path.append(ledger.balances["you"])
        assert supply_path == [10_000_000, 20_000_000, 15_000_000]
        assert wallet_path == [1_000, 2_000, 1_500]
    ok(f"criterion 1 (Fath worked example) in {b.elapsed:.3f}s")


def test_criterion_2_modality_scores():
    with Budget(1.0, "modalities") as b:
        fixture = biometrics.load_modality_fixture()
        assert len(fixture) == 21
        scores = {}
        for row in fixture:
            profile = biometrics.ModalityProfile(row["name"], tuple(row["levels"]))
            score = biometrics.modality_score(profile)
            assert score == row["published_score"], row["name"]
            scores[row["name"]] = score
        assert scores["3D Facial Recognition"] == 198
        assert scores["Iris Recognition"] == 190
        assert scores["Signature Recognition"] == 117
        eligible = {n for n, s in scores.items() if s > 147}
        table = biometrics.score_table(
            [biometrics.ModalityProfile(r["name"], tuple(r["levels"])) for r in fixture]
        )
        assert {r["name"] for r in table if r["eligible"]} == eligible
    ok(f"criterion 2 (21/21 modality scores, eligibility >147) in {b.elapsed:.3f}s")


def test_criterion_3_vortex_thresholds():
    with Budget(10.0, "vortex") as b:
        # N = 100 unit-power Governors: minimal approving configuration
        assert quorum_threshold(100) == 33
        assert approval_threshold(33) == 22
        assert min_approving_yes(100) == 22
        dao = Vortex()
        for i in range(100):
            dao.register_human_node(f"g{i:04d}")
            dao.promote_to_governor(f"g{i:04d}", now=0)
        p = dao.submit_proposal("g0000", ProposalType.Product, now=0)
        for v in sorted(dao.governors)[: pool_threshold(100)]:
            dao.pool_vote(v, p.id, True, now=0)
        ids = sorted(dao.governors)
        for v in ids[:22]:
            dao.cast_vote(v, p.id, True, now=1)
        for v in ids[22:33]:
            dao.cast_vote(v, p.id, False, now=1)
        result = dao.tally(p.id, now=7 * 86400)
        assert result.votes_cast == 33 and result.yes == 22 and result.approved

        # the same configuration with one fewer yes or one fewer voter fails
        assert not decide(100, 33, 21)[1]
        assert not decide(100, 32, 32)[1]

        # ceiling formulas across the whole sweep
        for n in range(3, 10_001):
            q = quorum_threshold(n)
            y = approval_threshold(q)
            assert min_approving_yes(n) == y
            assert decide(n, q, y) == (True, True)
            assert not decide(n, q, y - 1)[1]
            assert not decide(n, q - 1, q - 1)[1]

        # veto blocked after the third approval, with every Consul behind it
        consuls = sorted(dao.governors)[-3:]
        for nid in consuls:
            dao.seat_tier(nid, Tier.Consul, now=0)
        p.approval_count = 3
        with pytest.raises(VetoExhausted):
            dao.veto(p.id, consuls, now=7 * 86400)
    ok(f"criterion 3 (33/22 minimum, sweep to 10000, veto cap) in {b.elapsed:.2f}s")


def test_criterion_4_elgamal_homomorphism():
    with Budget(5.0, "elgamal") as b:
        params = generate_params(64, seed=2026)
        pair = keygen(params, rng_seed=1)
        rng = random.Random(2)
        failures = 0
        for i in range(1000):
            m1 = pow(params.g, rng.randrange(params.q), params.p)
            m2 = pow(params.g, rng.randrange(params.q), params.p)
            ct1 = encrypt_with_nonce(params, pair.pk, m1, random.Random(3 * i).randrange(1, params.q))
            ct2 = encrypt_with_nonce(params, pair.pk, m2, random.Random(3 * i + 1).randrange(1, params.q))
            if decrypt(params, pair.sk, ct1) != m1:
                failures += 1
            from bionode.groups import hom_mul

            if decrypt(params, pair.sk, hom_mul(ct1, ct2)) != m1 * m2 % params.p:
                failures += 1
        assert failures == 0
    ok(f"criterion 4 (1000 ElGamal round-trip + product trials, 0 failures) in {b.elapsed:.2f}s")


def test_criterion_5_zkp_linear():
    with Budget(30.0, "zkp") as b:
        params = generate_params(64, seed=2027)
        pair = keygen(params, rng_seed=5)
        rng = random.Random(6)

        accepted = 0
        instances = []
        for i in range(1000):
            n = rng.randrange(1, 6)
            xs = [rng.randrange(params.q) for _ in range(n)]
            rs = [rng.randrange(1, params.q) for _ in range(n)]
            coeffs = [rng.randrange(1, params.q) for _ in range(n)]
            statement, proof = zkp.prove_linear(params, pair.pk, xs, rs, coeffs, i)
            accepted += zkp.verify_linear(params, pair.pk, statement, proof)
            instances.append((statement, proof))
        assert accepted == 1000

        rejected = trials = 0
        g, p, q = params.g, params.p, params.q
        i = 0
        while trials < 1000:
            statement, proof = instances[i % len(instances)]
            i += 1
            n = len(statement.coefficients)
            k = rng.randrange(n)
            which = trials % 6
            if which == 0:
                bad = zkp.LinearStatement(
                    coefficients=tuple(
                        (a + 1) % q if j == k else a
                        for j, a in enumerate(statement.coefficients)
                    ),
                    input_cts=statement.input_cts,
                    output_ct=statement.output_ct,
                )
                rejected += not zkp.verify_linear(params, pair.pk, bad, proof)
            elif which in (1, 2):
                from bionode.groups import Ciphertext

                ct = statement.input_cts[k]
                tampered = Ciphertext(
                    c=ct.c * g % p if which == 1 else ct.c,
                    d=ct.d * g % p if which == 2 else ct.d,
                    params=params,
                )
                bad = zkp.LinearStatement(
                    coefficients=statement.coefficients,
                    input_cts=tuple(
                        tampered if j == k else c2
                        for j, c2 in enumerate(statement.input_cts)
                    ),
                    output_ct=statement.output_ct,
                )
                rejected += not zkp.verify_linear(params, pair.pk, bad, proof)
            elif which == 3:
                from bionode.groups import Ciphertext

                out = Ciphertext(
                    c=statement.output_ct.c,
                    d=statement.output_ct.d * g % p,
                    params=params,
                )
                bad = zkp.LinearStatement(
                    coefficients=statement.coefficients,
                    input_cts=statement.input_cts,
                    output_ct=out,
                )
                rejected += not zkp.verify_linear(params, pair.pk, bad, proof)
            elif which == 4:
                bad_proof = zkp.LogEqProof(A=proof.A * g % p, B=proof.B, t=proof.t)
                rejected += not zkp.verify_linear(params, pair.pk, statement, bad_proof)
            else:
                bad_proof = zkp.LogEqProof(A=proof.A, B=proof.B, t=(proof.t + 1) % q)
                rejected += not zkp.verify_linear(params, pair.pk, statement, bad_proof)
            trials += 1
        assert rejected == trials == 1000
    ok(f"criterion 5 (1000 honest accepts, 1000 tamper rejects) in {b.elapsed:.2f}s")


def test_criterion_6_ring_lwe():
    with Budget(60.0, "lwe") as b:
        small = lwe.PROFILES["test-small"]
        keys_small = lwe.lwe_keygen(small, 1)
        rng = random.Random(2)
        failures = 0
        for i in range(1000):
            m = tuple(rng.randrange(small.t) for _ in range(small.d))
            m2 = tuple(rng.randrange(small.t) for _ in range(small.d))
            ct = lwe.lwe_encrypt(small, keys_small.pk, m, 2 * i)
            ct2 = lwe.lwe_encrypt(small, keys_small.pk, m2, 2 * i + 1)
            if lwe.lwe_decrypt(small, keys_small.sk, ct) != m:
                failures += 1
            if lwe.lwe_decrypt(small, keys_small.sk, ct2) != m2:
                failures += 1

        exh = lwe.PROFILES["test-exhaustive"]
        keys_exh = lwe.lwe_keygen(exh, 3)

        def ring_product(a, c, modulus, d):
            acc = [0] * d
            for i1, x in enumerate(a):
                for j1, y in enumerate(c):
                    k = i1 + j1
                    if k < d:
                        acc[k] += x * y
                    else:
                        acc[k - d] -= x * y
            return tuple(v % modulus for v in acc)

        for i in range(1000):
            m = tuple(rng.randrange(exh.t) for _ in range(exh.d))
            m2 = tuple(rng.randrange(exh.t) for _ in range(exh.d))
            prod = lwe.lwe_mul(
                lwe.lwe_encrypt(exh, keys_exh.pk, m, 2 * i),
                lwe.lwe_encrypt(exh, keys_exh.pk, m2, 2 * i + 1),
            )
            if lwe.lwe_decrypt(exh, keys_exh.sk, prod) != ring_product(m, m2, exh.t, exh.d):
                failures += 1
        assert failures == 0

        # inner product: exhaustive n=4, then 1000 random n=32 pairs
        seed = 0
        for P in itertools.product((0, 1), repeat=4):
            for Q in itertools.product((0, 1), repeat=4):
                ct = lwe.lwe_mul(
                    lwe.lwe_encrypt(exh, keys_exh.pk, lwe.encode_forward(exh, list(P)), seed),
                    lwe.lwe_encrypt(exh, keys_exh.pk, lwe.encode_reverse(exh, list(Q)), seed + 1),
                )
                assert lwe.extract_inner_product(exh, keys_exh.sk, ct, 4) == sum(
                    p * q for p, q in zip(P, Q)
                )
                seed += 2

        big = lwe.PROFILES["default"]
        keys_big = lwe.lwe_keygen(big, 4)
        for i in range(1000):
            P = [rng.randint(0, 1) for _ in range(32)]
            Q = [rng.randint(0, 1) for _ in range(32)]
            ct = lwe.lwe_mul(
                lwe.lwe_encrypt(big, keys_big.pk, lwe.encode_forward(big, P), 2 * i),
                lwe.lwe_encrypt(big, keys_big.pk, lwe.encode_reverse(big, Q), 2 * i + 1),
            )
            assert lwe.extract_inner_product(big, keys_big.sk, ct, 32) == sum(
                p * q for p, q in zip(P, Q)
            )
    ok(f"criterion 6 (ring-LWE trials + 256 exhaustive + 1000 n=32) in {b.elapsed:.2f}s")


def test_criterion_7_perpetual_storage():
    d = Decimal("0.3057")
    year0 = Decimal(1)
    closed = year0 / d
    assert abs(closed - Decimal("3.2712")) / closed < Decimal("1e-4")
    partial, factor = Decimal(0), Decimal(1)
    for _ in range(200):
        partial += year0 * factor
        factor *= 1 - d
    assert abs(closed - partial) / closed < Decimal("1e-9")
    # and the fee engine agrees with the closed form
    per_hour = Decimal(1) / Decimal(fees.HOURS_PER_YEAR)
    quote = fees.PriceQuote(
        compute_cost_per_tx_usd=Decimal("0.001"),
        storage_cost_gb_hour_usd=per_hour,
        hmnd_per_usd=Decimal(1),
        timestamp="t",
    )
    units = fees.perpetual_storage_price(quote, Decimal(1), d)
    assert abs(Decimal(units) / fees.UNITS_PER_TOKEN - closed) <= Decimal("0.0001")
    ok("criterion 7 (perpetual storage closed form vs series)")


def test_criterion_8_slashing_ladder():
    fixture = json.loads(
        (ROOT / "src" / "bionode" / "data" / "slashing_table.json").read_text()
    )
    ladder = [FOREVER if m == "forever" else Fraction(m) for m in fixture["ladder_months"]]
    assert ladder[:-1] == list(SCALING_LADDER_MONTHS) and ladder[-1] == FOREVER
    rows = {r["kind"]: r for r in fixture["perpetrations"]}
    assert set(rows) == {k.value for k in PerpetrationKind}
    for kind, spec in PERPETRATION_TABLE.items():
        row = rows[kind.value]
        assert (
            spec.severity,
            spec.base_period_months,
            spec.scalable,
            spec.effects,
        ) == (
            row["severity"],
            Fraction(row["base_period_months"]),
            row["scalable"],
            frozenset(Effect(e) for e in row["effects"]),
        ), kind
    bl = Blacklist()
    got = [bl.slash("n", PerpetrationKind.Offline48h, now=i).period_months for i in range(11)]
    assert got == list(SCALING_LADDER_MONTHS) + [FOREVER]
    ok("criterion 8 (Table fidelity + 0.5 -> ... -> forever progression)")


def test_criterion_9_simulator_safety_and_conservation():
    with Budget(30.0, "netsim") as b:
        for name in ("honest", "faulty", "malicious"):
            cfg = netsim.load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
            sim = netsim.run(cfg)
            again = netsim.run(cfg)
            assert sim.event_log() == again.event_log(), f"{name}: nondeterministic"
            expected_sha = (GOLDEN / f"{name}_events.sha256").read_text().strip()
            assert hashlib.sha256(sim.event_log().encode()).hexdigest() == expected_sha

            # replay safety from the event stream alone
            expiry: dict[str, int] = {}
            blocked: dict[str, float] = {}
            for e in sim.events:
                now = e.slot * cfg.slot_seconds
                if e.kind == "TicketRenewed":
                    expiry[e.data["node"]] = e.data["expiry_slot"]
                elif e.kind == "Slashed":
                    m = e.data["period_months"]
                    until = (
                        float("inf")
                        if m == "forever"
                        else now + int(Fraction(m) * 2_630_016)
                    )
                    blocked[e.data["node"]] = max(blocked.get(e.data["node"], 0), until)
                elif e.kind == "BlockAuthored":
                    node = e.data["node"]
                    assert expiry.get(node, 0) > e.slot, f"{name}: expired author"
                    assert now >= blocked.get(node, 0), f"{name}: blacklisted author"

            distributed = vault = 0
            for e in sim.events:
                if e.kind == "FeesDistributed":
                    assert e.data["distributed"] + e.data["vault_delta"] == e.data["total"]
                    distributed += e.data["distributed"]
                    vault += e.data["vault_delta"]
            assert vault == sim.vault
            assert distributed + vault == sum(cfg.fees_per_epoch)
    ok(f"criterion 9 (3 scenarios: safety, conservation, determinism) in {b.elapsed:.2f}s")


def test_criterion_10_encrypted_match_equivalence():
    exh = lwe.PROFILES["test-exhaustive"]
    keys = lwe.lwe_keygen(exh, 11)
    seed = 0
    checked = 0
    for P in itertools.product((0, 1), repeat=4):
        for Q in itertools.product((0, 1), repeat=4):
            plain = sum(p * q for p, q in zip(P, Q))
            for threshold in (1, 3):
                expected = (
                    biometrics.MatchResult.MATCH
                    if plain >= threshold
                    else biometrics.MatchResult.NO_MATCH
                )
                got = biometrics.encrypted_match(
                    exh, keys, list(P), list(Q), threshold, rng_seed=seed
                )
                assert got is expected
            checked += 1
            seed += 2
    assert checked == 256

    big = lwe.PROFILES["default"]
    keys_big = lwe.lwe_keygen(big, 12)
    rng = random.Random(13)
    for i in range(1000):
        P = [rng.randint(0, 1) for _ in range(32)]
        Q = [rng.randint(0, 1) for _ in range(32)]
        threshold = rng.randrange(1, 33)
        plain = sum(p * q for p, q in zip(P, Q))
        expected = (
            biometrics.MatchResult.MATCH
            if plain >= threshold
            else biometrics.MatchResult.NO_MATCH
        )
        assert biometrics.encrypted_match(big, keys_big, P, Q, threshold, rng_seed=i) is expected
    ok("criterion 10 (256/256 exhaustive + 1000 random encrypted-match equivalence)")
