"""Verifiable linear computation: completeness, soundness, VSS, windows.

Soundness is exercised statistically: every single-component tamper of a
valid statement or proof must be rejected. The plaintext oracle for
aggregation is direct exponent arithmetic; the ciphertext oracle is the old
fold, oracle_aggregate, which raises every component to the full exponent
a mod q.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bionode import groups, zkp
from bionode.groups import (
    Ciphertext,
    DocumentInvalid,
    GroupParams,
    decrypt,
    encrypt_with_nonce,
    generate_params,
    hom_scalar,
    keygen,
)
from bionode.zkp import (
    KernelLargerThanInput,
    LinearStatement,
    LogEqProof,
    WitnessInconsistent,
    _challenge,
    aggregate,
    conv_as_linear,
    logeq_prove,
    logeq_verify,
    poly_eval,
    prove_linear,
    read_statement_doc,
    statement_doc,
    verify_linear,
    vss_commit,
    vss_verify_share,
)

SMALL = GroupParams(p=23, q=11, g=4)
# q = 83 keeps exhaustive VSS sweeps cheap; p = 2q+1 = 167
VSS_GROUP = GroupParams(p=167, q=83, g=4)
GROUP_64 = generate_params(64, seed=2024)
GROUP_1024 = generate_params(1024)


def oracle_aggregate(params: GroupParams, coefficients, cts) -> tuple[int, int]:
    """aggregate's old fold: each component to the full exponent a mod q."""
    p, q = params.p, params.q
    c = d = 1
    for a, ct in zip(coefficients, cts):
        c = c * pow(ct.c, a % q, p) % p
        d = d * pow(ct.d, a % q, p) % p
    return c, d


def special_components(params: GroupParams) -> list[int]:
    """1, the non-residues p - 1 and p - g, and values outside 1..p-1."""
    p = params.p
    return [1, p - 1, p - params.g, 0, p, p + 1, 2 * p + params.g, -params.g]


def special_coefficients(params: GroupParams) -> list[int]:
    q = params.q
    return [0, 1, -1, 5, -5, q, -q, q + 1, q - 1, 2 * q - 3]


def components(params: GroupParams):
    """Members, their negatives (non-residues), any of 1..p-1, the specials
    and values around them."""
    p = params.p
    member = st.integers(1, params.q - 1).map(lambda r: pow(params.g, r, p))
    return st.one_of(
        member, member.map(lambda c: p - c), st.integers(1, p - 1),
        st.sampled_from(special_components(params)), st.integers(-2 * p, 3 * p),
    )


def coefficients(params: GroupParams):
    q = params.q
    return st.one_of(
        st.sampled_from(special_coefficients(params)), st.integers(-50, 50), st.integers(-3 * q, 3 * q),
    )


@pytest.fixture(scope="module")
def group():
    return GROUP_64, keygen(GROUP_64, rng_seed=1)


class TestVss:
    def test_zero_coefficient(self):
        assert vss_commit(SMALL, [0]) == (1,)

    def test_worked_example(self):
        assert vss_commit(SMALL, [3]) == (18,)  # 4^3 mod 23

    def test_length_preserved(self):
        assert len(vss_commit(SMALL, [1, 2, 3, 4])) == 4

    def test_constant_polynomial_share(self):
        commitment = vss_commit(SMALL, [5])
        assert vss_verify_share(SMALL, commitment, (7, 5))

    def test_random_degree_three_polynomial(self):
        rng = random.Random(3)
        coeffs = [rng.randrange(VSS_GROUP.q) for _ in range(4)]
        commitment = vss_commit(VSS_GROUP, coeffs)
        for _ in range(50):
            a = rng.randrange(VSS_GROUP.q)
            b = poly_eval(coeffs, a, VSS_GROUP.q)
            assert vss_verify_share(VSS_GROUP, commitment, (a, b))
            assert not vss_verify_share(VSS_GROUP, commitment, (a, (b + 1) % VSS_GROUP.q))

    def test_exhaustive_share_domain(self):
        # over the whole field: exactly the true shares are accepted
        coeffs = [17, 5, 80]
        commitment = vss_commit(VSS_GROUP, coeffs)
        for a in range(VSS_GROUP.q):
            truth = poly_eval(coeffs, a, VSS_GROUP.q)
            for b in range(VSS_GROUP.q):
                assert vss_verify_share(VSS_GROUP, commitment, (a, b)) == (b == truth)


class TestAggregate:
    def test_identity_aggregation(self, group):
        params, pair = group
        ct = encrypt_with_nonce(params, pair.pk, params.g, 7)
        statement = LinearStatement(
            coefficients=(1,), input_cts=(ct,), output_ct=ct
        )
        agg = aggregate(params, statement)
        assert (agg.c, agg.d) == (ct.c, ct.d)

    def test_linear_oracle(self, group):
        params, pair = group
        g, p, q = params.g, params.p, params.q
        cts = tuple(
            encrypt_with_nonce(params, pair.pk, pow(g, x, p), r)
            for x, r in [(1, 3), (1, 5)]
        )
        statement = LinearStatement(coefficients=(2, 3), input_cts=cts, output_ct=cts[0])
        agg = aggregate(params, statement)
        # plaintext oracle: y = 2*1 + 3*1 = 5
        assert decrypt(params, pair.sk, agg) == pow(g, 5, p)

    def test_zero_coefficients(self, group):
        params, pair = group
        cts = tuple(
            encrypt_with_nonce(params, pair.pk, pow(params.g, x, params.p), r)
            for x, r in [(4, 3), (9, 5)]
        )
        statement = LinearStatement(coefficients=(0, 0), input_cts=cts, output_ct=cts[0])
        agg = aggregate(params, statement)
        assert (agg.c, agg.d) == (1, 1)
        assert decrypt(params, pair.sk, agg) == 1

    def test_aggregation_matches_exponent_oracle(self, group):
        params, pair = group
        g, p, q = params.g, params.p, params.q
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(1, 6)
            xs = [rng.randrange(q) for _ in range(n)]
            rs = [rng.randrange(1, q) for _ in range(n)]
            coeffs = [rng.randrange(q) for _ in range(n)]
            cts = tuple(
                encrypt_with_nonce(params, pair.pk, pow(g, x, p), r)
                for x, r in zip(xs, rs)
            )
            statement = LinearStatement(
                coefficients=tuple(coeffs), input_cts=cts, output_ct=cts[0]
            )
            y = sum(a * x for a, x in zip(coeffs, xs)) % q
            assert decrypt(params, pair.sk, aggregate(params, statement)) == pow(g, y, p)


class TestSignedExponent:
    """hom_scalar takes a short power and a Legendre symbol where the
    exponent is near q; it and aggregate must equal the old fold exactly,
    on any component, in the subgroup or not."""

    @pytest.mark.parametrize("params", [GROUP_64, GROUP_1024], ids=["64", "1024"])
    def test_special_values(self, params):
        for x in special_components(params):
            for k in special_coefficients(params):
                ct = Ciphertext(c=x, d=params.p - x, params=params)
                got = hom_scalar(ct, k)
                assert (got.c, got.d) == oracle_aggregate(params, [k], [ct]), (x, k)

    @pytest.mark.parametrize("params", [GROUP_64, GROUP_1024], ids=["64", "1024"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hom_scalar_matches_oracle(self, params, data):
        ct = Ciphertext(c=data.draw(components(params)), d=data.draw(components(params)), params=params)
        k = data.draw(coefficients(params))
        got = hom_scalar(ct, k)
        assert (got.c, got.d) == oracle_aggregate(params, [k], [ct])
        # a negative k with one component 0 or p: the shared inversion must not be taken
        k = data.draw(st.one_of(st.integers(-50, -1), st.integers(-3 * params.q, -1)))
        edge = data.draw(st.sampled_from([0, params.p]))
        for one_edge in (Ciphertext(c=edge, d=ct.d, params=params), Ciphertext(c=ct.c, d=edge, params=params)):
            got = hom_scalar(one_edge, k)
            assert (got.c, got.d) == oracle_aggregate(params, [k], [one_edge]), (one_edge, k)

    @pytest.mark.parametrize("params", [GROUP_64, GROUP_1024], ids=["64", "1024"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_aggregate_matches_oracle(self, params, data):
        n = data.draw(st.integers(1, 8))
        cts = tuple(Ciphertext(c=data.draw(components(params)), d=data.draw(components(params)), params=params)
                    for _ in range(n))
        coeffs = tuple(data.draw(coefficients(params)) for _ in range(n))
        agg = aggregate(params, LinearStatement(coefficients=coeffs, input_cts=cts, output_ct=cts[0]))
        assert (agg.c, agg.d) == oracle_aggregate(params, coeffs, cts)


class TestLogEq:
    def test_zero_witness(self, group):
        params, _ = group
        proof = logeq_prove(params, params.g, 1, params.g, 1, witness=0, rng_seed=1)
        assert logeq_verify(params, params.g, 1, params.g, 1, proof)

    def test_completeness_randomized(self, group):
        params, pair = group
        rng = random.Random(5)
        for i in range(200):
            w = rng.randrange(params.q)
            g2 = pow(params.g, rng.randrange(1, params.q), params.p)
            h1 = pow(params.g, w, params.p)
            h2 = pow(g2, w, params.p)
            proof = logeq_prove(params, params.g, h1, g2, h2, w, rng_seed=i)
            assert logeq_verify(params, params.g, h1, g2, h2, proof)

    def test_wrong_statement_rejected(self, group):
        params, _ = group
        w = 6
        g2 = pow(params.g, 3, params.p)
        h1, h2 = pow(params.g, w, params.p), pow(g2, w, params.p)
        proof = logeq_prove(params, params.g, h1, g2, h2, w, rng_seed=9)
        bad_h2 = h2 * g2 % params.p
        assert not logeq_verify(params, params.g, h1, g2, bad_h2, proof)

    def test_tampered_t_rejected(self, group):
        params, _ = group
        w = 4
        h1 = pow(params.g, w, params.p)
        proof = logeq_prove(params, params.g, h1, params.g, h1, w, rng_seed=3)
        bad = LogEqProof(A=proof.A, B=proof.B, t=(proof.t + 1) % params.q)
        assert not logeq_verify(params, params.g, h1, params.g, h1, bad)

    def test_swapped_commitments_rejected(self, group):
        params, _ = group
        w = 4
        g2 = pow(params.g, 5, params.p)
        h1, h2 = pow(params.g, w, params.p), pow(g2, w, params.p)
        proof = logeq_prove(params, params.g, h1, g2, h2, w, rng_seed=3)
        swapped = LogEqProof(A=proof.B, B=proof.A, t=proof.t)
        assert not logeq_verify(params, params.g, h1, g2, h2, swapped)

    def test_inconsistent_witness_raises(self, group):
        params, _ = group
        with pytest.raises(WitnessInconsistent):
            logeq_prove(params, params.g, params.g, params.g, 1, witness=5, rng_seed=1)

    def test_proofs_deterministic(self, group):
        params, _ = group
        w = 8
        h1 = pow(params.g, w, params.p)
        p1 = logeq_prove(params, params.g, h1, params.g, h1, w, rng_seed=42)
        p2 = logeq_prove(params, params.g, h1, params.g, h1, w, rng_seed=42)
        assert p1 == p2


def _equations_hold_outside_subgroup(params: GroupParams, negate_a: bool, parity: int):
    """(g1, h1, g2, h2) and a proof both of whose equations hold, with h1 = p - g^w
    outside the subgroup (and A = p - g^r too when negate_a): (-1)^z cancels for
    the z parity given, so r is searched until the challenge has it."""
    p, q, g = params.p, params.q, params.g
    w, g2 = 7, pow(g, 5, p)
    h1, h2 = p - pow(g, w, p), pow(g2, w, p)
    for r in range(1, 200):
        A, B = pow(g, r, p), pow(g2, r, p)
        if negate_a:
            A = p - A
        z = _challenge(params, g, h1, g2, h2, A, B)
        if z % 2 == parity:
            return (g, h1, g2, h2), LogEqProof(A=A, B=B, t=(r + w * z) % q)
    raise AssertionError(f"no r below 200 gives a challenge of parity {parity}")


@pytest.fixture(scope="module")
def proof_1024():
    pk = keygen(GROUP_1024, rng_seed=3).pk
    statement, proof = prove_linear(GROUP_1024, pk, [3, 1, 4, 1], [5, 9, 2, 6], [2, -7, 1, 8], rng_seed=6)
    return pk, statement, proof


def _counting(monkeypatch, calls: dict, owner, name: str) -> None:
    real = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


class TestVerifyOrder:
    """logeq_verify stops at its first failing check: ranges and bases, the two
    equations, then the membership of h1, h2, A and B. The membership tests
    still refuse what the equations let through."""

    @pytest.mark.parametrize("negate_a, parity", [(False, 0), (True, 1)],
                             ids=["h1-negated-z-even", "A-and-h1-negated-z-odd"])
    def test_equations_hold_but_an_element_is_outside_the_subgroup(self, negate_a, parity):
        params, p = GROUP_64, GROUP_64.p
        (g1, h1, g2, h2), proof = _equations_hold_outside_subgroup(params, negate_a, parity)
        z = _challenge(params, g1, h1, g2, h2, proof.A, proof.B)
        assert pow(g1, proof.t, p) == proof.A * pow(h1, z, p) % p
        assert pow(g2, proof.t, p) == proof.B * pow(h2, z, p) % p
        assert not params.contains(h1)
        assert not logeq_verify(params, g1, h1, g2, h2, proof)

    @pytest.mark.parametrize("value", [-1, 0, "p"])
    @pytest.mark.parametrize("name", ["h1", "h2", "A", "B"])
    def test_element_out_of_range_is_rejected_without_raising(self, group, name, value):
        params, _ = group
        p, g, w = params.p, params.g, 6
        g2 = pow(g, 3, p)
        h1, h2 = pow(g, w, p), pow(g2, w, p)
        proof = logeq_prove(params, g, h1, g2, h2, w, rng_seed=9)
        args = {"h1": h1, "h2": h2, "A": proof.A, "B": proof.B, name: p if value == "p" else value}
        bad = LogEqProof(A=args["A"], B=args["B"], t=proof.t)
        assert logeq_verify(params, g, args["h1"], g2, args["h2"], bad) is False

    @pytest.mark.parametrize("forgery, fixed_base_pows, contains", [
        ("none", 2, 6), ("output", 1, 2), ("coefficient", 1, 2),
    ])
    def test_a_tampered_statement_costs_one_equation(self, proof_1024, monkeypatch,
                                                      forgery, fixed_base_pows, contains):
        pk, statement, proof = proof_1024
        if forgery == "output":
            statement = LinearStatement(statement.coefficients, statement.input_cts,
                                        _tamper_ct(statement.output_ct, GROUP_1024, "d"))
        elif forgery == "coefficient":
            statement = LinearStatement((statement.coefficients[0] + 1, *statement.coefficients[1:]),
                                        statement.input_cts, statement.output_ct)
        calls = {"fixed_base_pow": 0, "contains": 0}
        _counting(monkeypatch, calls, zkp, "fixed_base_pow")
        _counting(monkeypatch, calls, GroupParams, "contains")
        assert verify_linear(GROUP_1024, pk, statement, proof) is (forgery == "none")
        assert calls == {"fixed_base_pow": fixed_base_pows, "contains": contains}

    def test_key_outside_the_subgroup_builds_no_comb_table(self, proof_1024, monkeypatch):
        pk, statement, proof = proof_1024
        bad_key = GROUP_1024.p - pk
        bases = []
        real = groups.comb_table
        monkeypatch.setattr(groups, "comb_table", lambda base, p: bases.append(base) or real(base, p))
        assert not verify_linear(GROUP_1024, bad_key, statement, proof)
        assert bad_key not in bases


def _tamper_ct(ct: Ciphertext, params: GroupParams, component: str) -> Ciphertext:
    bump = params.g  # multiplying by g changes the plaintext in the exponent
    if component == "c":
        return Ciphertext(c=ct.c * bump % params.p, d=ct.d, params=params)
    return Ciphertext(c=ct.c, d=ct.d * bump % params.p, params=params)


class TestProveVerifyLinear:
    def test_end_to_end(self, group):
        params, pair = group
        statement, proof = prove_linear(
            params, pair.pk, [1, 0], [3, 5], [1, 1], rng_seed=7
        )
        assert verify_linear(params, pair.pk, statement, proof)
        assert decrypt(params, pair.sk, statement.output_ct) == pow(
            params.g, 1, params.p
        )

    def test_zero_vector(self, group):
        params, pair = group
        statement, proof = prove_linear(
            params, pair.pk, [0, 0, 0], [2, 4, 6], [5, 7, 9], rng_seed=8
        )
        assert verify_linear(params, pair.pk, statement, proof)
        assert decrypt(params, pair.sk, statement.output_ct) == 1

    def test_forged_output_rejected(self, group):
        params, pair = group
        statement, proof = prove_linear(params, pair.pk, [2, 3], [3, 5], [1, 1], 9)
        forged = LinearStatement(
            coefficients=statement.coefficients,
            input_cts=statement.input_cts,
            output_ct=_tamper_ct(statement.output_ct, params, "d"),  # claims y+1
        )
        assert not verify_linear(params, pair.pk, forged, proof)

    def test_altered_coefficients_rejected(self, group):
        params, pair = group
        statement, proof = prove_linear(params, pair.pk, [2, 3], [3, 5], [1, 2], 10)
        altered = LinearStatement(
            coefficients=(1, 3),
            input_cts=statement.input_cts,
            output_ct=statement.output_ct,
        )
        assert not verify_linear(params, pair.pk, altered, proof)

    def test_empty_statement_rejected(self, group):
        params, pair = group
        _, proof = prove_linear(params, pair.pk, [1], [2], [1], 3)
        empty = LinearStatement(
            coefficients=(),
            input_cts=(),
            output_ct=encrypt_with_nonce(params, pair.pk, params.g, 5),
        )
        assert not verify_linear(params, pair.pk, empty, proof)
        with pytest.raises(ValueError):
            prove_linear(params, pair.pk, [], [], [], 3)

    def test_fiat_shamir_documents_identical(self, group):
        params, pair = group
        s1, p1 = prove_linear(params, pair.pk, [4, 2], [5, 6], [3, 1], rng_seed=55)
        s2, p2 = prove_linear(params, pair.pk, [4, 2], [5, 6], [3, 1], rng_seed=55)
        assert p1 == p2
        assert s1 == s2

    def test_soundness_tamper_trials(self, group):
        """Every single-component tamper across many random instances rejects."""
        params, pair = group
        rng = random.Random(99)
        rejected = trials = 0
        for i in range(150):
            n = rng.randrange(1, 5)
            xs = [rng.randrange(params.q) for _ in range(n)]
            rs = [rng.randrange(1, params.q) for _ in range(n)]
            coeffs = [rng.randrange(1, params.q) for _ in range(n)]
            statement, proof = prove_linear(params, pair.pk, xs, rs, coeffs, i)
            assert verify_linear(params, pair.pk, statement, proof)
            k = rng.randrange(n)
            tampers = [
                LinearStatement(
                    coefficients=tuple(
                        (a + 1) % params.q if j == k else a
                        for j, a in enumerate(statement.coefficients)
                    ),
                    input_cts=statement.input_cts,
                    output_ct=statement.output_ct,
                ),
                LinearStatement(
                    coefficients=statement.coefficients,
                    input_cts=tuple(
                        _tamper_ct(ct, params, "c") if j == k else ct
                        for j, ct in enumerate(statement.input_cts)
                    ),
                    output_ct=statement.output_ct,
                ),
                LinearStatement(
                    coefficients=statement.coefficients,
                    input_cts=statement.input_cts,
                    output_ct=_tamper_ct(statement.output_ct, params, "d"),
                ),
            ]
            for bad in tampers:
                trials += 1
                rejected += not verify_linear(params, pair.pk, bad, proof)
            for bad_proof in (
                LogEqProof(A=proof.A * params.g % params.p, B=proof.B, t=proof.t),
                LogEqProof(A=proof.A, B=proof.B * params.g % params.p, t=proof.t),
                LogEqProof(A=proof.A, B=proof.B, t=(proof.t + 1) % params.q),
            ):
                trials += 1
                rejected += not verify_linear(params, pair.pk, statement, bad_proof)
        assert rejected == trials

    @pytest.mark.parametrize("component", ["c", "d"])
    def test_output_outside_range_rejected(self, group, component):
        """An output component with no inverse mod p is a reject, not a crash."""
        params, pair = group
        statement, proof = prove_linear(params, pair.pk, [1, 2], [3, 4], [5, 6], 11)
        for value in (0, params.p):
            out = Ciphertext(**{"c": statement.output_ct.c, "d": statement.output_ct.d,
                                component: value}, params=params)
            forged = LinearStatement(statement.coefficients, statement.input_cts, out)
            assert not verify_linear(params, pair.pk, forged, proof)


_ints = st.integers(min_value=-(2**70), max_value=2**70)


class TestStatementDoc:
    @settings(max_examples=60, deadline=None)
    @given(
        coefficients=st.lists(_ints, max_size=5),
        components=st.lists(_ints, min_size=12, max_size=12),
        proof=st.tuples(_ints, _ints, _ints),
    )
    def test_round_trip(self, group, coefficients, components, proof):
        params, pair = group
        cts = [Ciphertext(c=c, d=d, params=params)
               for c, d in zip(components[::2], components[1::2])]
        statement = LinearStatement(
            coefficients=tuple(coefficients),
            input_cts=tuple(cts[: len(coefficients)]),
            output_ct=cts[-1],
        )
        x = (params, pair.pk, statement, LogEqProof(*proof))
        doc = json.loads(json.dumps(statement_doc(*x)))
        assert read_statement_doc(doc) == x

    def test_document_layout(self, group):
        params, pair = group
        statement, proof = prove_linear(params, pair.pk, [1, 2], [3, 4], [-5, 6], 12)
        doc = statement_doc(params, pair.pk, statement, proof)
        assert sorted(doc) == ["coefficients", "inputs", "output", "params", "proof"]
        assert doc["params"] == {"p": str(params.p), "q": str(params.q),
                                 "g": str(params.g), "pk": str(pair.pk)}
        assert doc["coefficients"] == ["-5", "6"]
        assert doc["proof"] == {"A": str(proof.A), "B": str(proof.B), "t": str(proof.t)}

    @pytest.mark.parametrize("edit", [
        lambda d: [d],
        lambda d: {**d, "params": [1]},
        lambda d: {**d, "coefficients": 5},
        lambda d: {**d, "coefficients": "3"},  # iterates to ["3"], so it must be refused
        lambda d: {**d, "coefficients": ["1", 2.5]},
        lambda d: {**d, "inputs": [[1, 2]]},
        lambda d: {**d, "inputs": {"c": "1", "d": "1"}},
        lambda d: {**d, "output": {"c": "1"}},
        lambda d: {**d, "proof": {"A": "1", "B": "1", "t": None}},
        lambda d: {k: v for k, v in d.items() if k != "proof"},
        lambda d: {**d, "params": {**d["params"], "g": "1"}},
        lambda d: {**d, "params": {**d["params"], "pk": "1"}},
    ], ids=["top-level-list", "params-list", "coefficients-number", "coefficients-string",
            "coefficient-float",
            "input-list", "inputs-object", "output-missing-d", "t-null", "no-proof",
            "g-one", "pk-one"])
    def test_malformed_rejected(self, group, edit):
        params, pair = group
        statement, proof = prove_linear(params, pair.pk, [1], [2], [3], 13)
        with pytest.raises(DocumentInvalid):
            read_statement_doc(edit(statement_doc(params, pair.pk, statement, proof)))


class TestConvWindows:
    def test_single_window(self):
        assert conv_as_linear(3, [1, 2, 3]) == [[1, 2, 3]]

    def test_sliding_windows(self):
        layouts = conv_as_linear(5, [7, 9])
        assert layouts == [
            [7, 9, 0, 0, 0],
            [0, 7, 9, 0, 0],
            [0, 0, 7, 9, 0],
            [0, 0, 0, 7, 9],
        ]

    def test_window_indices_enumerated(self):
        n, kernel = 9, [1, 2, 3, 4]
        layouts = conv_as_linear(n, kernel)
        assert len(layouts) == n - len(kernel) + 1
        for j, row in enumerate(layouts):
            for i in range(n):
                expected = kernel[i - j] if j <= i < j + len(kernel) else 0
                assert row[i] == expected

    def test_identity_kernel(self):
        layouts = conv_as_linear(3, [1])
        assert layouts == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_kernel_too_large(self):
        with pytest.raises(KernelLargerThanInput):
            conv_as_linear(2, [1, 2, 3])

    def test_windows_prove_against_plaintext_convolution(self, group):
        params, pair = group
        rng = random.Random(4)
        xs = [rng.randrange(50) for _ in range(5)]
        kernel = [2, 3]
        rs = [rng.randrange(1, params.q) for _ in range(5)]
        for j, coeffs in enumerate(conv_as_linear(5, kernel)):
            statement, proof = prove_linear(params, pair.pk, xs, rs, coeffs, j)
            assert verify_linear(params, pair.pk, statement, proof)
            y = sum(kernel[i] * xs[j + i] for i in range(len(kernel)))
            assert decrypt(params, pair.sk, statement.output_ct) == pow(
                params.g, y % params.q, params.p
            )
