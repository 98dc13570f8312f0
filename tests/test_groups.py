"""Group arithmetic and ElGamal: worked examples and laws.

Expected values for the small examples are derived by direct modular
arithmetic (independent of the library code); primality is cross-checked
against sympy and trial division.
"""

import json
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bionode import groups, zkp
from bionode.groups import (
    Ciphertext,
    DocumentInvalid,
    GroupParams,
    InvalidCiphertext,
    MessageNotInSubgroup,
    ParamsMismatch,
    decrypt,
    encrypt_with_nonce,
    fixed_base_pow,
    generate_params,
    hom_mul,
    hom_scalar,
    key_doc,
    keygen,
    params_doc,
    read_key_doc,
    read_params_doc,
)

SMALL = GroupParams(p=23, q=11, g=4)


def nonce(params: GroupParams, seed: int) -> int:
    """A seeded encryption nonce in [1, q)."""
    return random.Random(seed).randrange(1, params.q)


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestParams:
    def test_generated_params_satisfy_invariants(self):
        params = generate_params(16, seed=7)
        assert pow(params.g, params.q, params.p) == 1
        assert params.g != 1
        assert trial_division_prime(params.p)
        assert trial_division_prime(params.q)

    def test_generation_deterministic(self):
        assert generate_params(20, seed=3) == generate_params(20, seed=3)

    def test_generated_primes_pass_sympy(self):
        params = generate_params(48, seed=11)
        assert sympy.isprime(params.p) and sympy.isprime(params.q)

    def test_production_profile_is_1024_bits(self):
        params = generate_params(1024)
        assert params.p.bit_length() == 1024
        assert pow(params.g, params.q, params.p) == 1

    def test_miller_rabin_agrees_with_sympy(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(2, 10**7)
            assert groups.is_prime(n) == sympy.isprime(n), n

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_params(8)

    def test_json_round_trip(self):
        params = generate_params(32, seed=1)
        pk = keygen(params, 2).pk
        doc = json.loads(json.dumps(params_doc(params, pk)))
        assert read_params_doc(doc) == (params, pk)


class TestKeygen:
    def test_worked_example(self):
        # alpha=3 in the p=23 group: pk = 4^3 mod 23 = 64 mod 23 = 18
        assert pow(SMALL.g, 3, SMALL.p) == 18

    def test_pk_matches_sk(self):
        params = generate_params(32, seed=2)
        pair = keygen(params, rng_seed=9)
        assert 1 <= pair.sk < params.q
        assert pair.pk == pow(params.g, pair.sk, params.p)

    def test_smallest_exponent_gives_generator(self):
        assert pow(SMALL.g, 1, SMALL.p) == SMALL.g

    def test_different_seeds_differ(self):
        params = generate_params(48, seed=0)
        assert keygen(params, 1).sk != keygen(params, 2).sk


class TestEncryptDecrypt:
    def test_worked_example(self):
        # m=16, r=2: c = 4^2 = 16, d = 18^2 * 16 = 2 * 16 = 32 = 9 (mod 23)
        ct = encrypt_with_nonce(SMALL, pk=18, m=16, r=2)
        assert (ct.c, ct.d) == (16, 9)
        # 16^3 = 2 (mod 23); 2^-1 = 12; 9 * 12 = 108 = 16 (mod 23)
        assert decrypt(SMALL, 3, ct) == 16

    def test_identity_message(self):
        ct = encrypt_with_nonce(SMALL, pk=18, m=1, r=nonce(SMALL, 4))
        assert decrypt(SMALL, 3, ct) == 1

    def test_zero_randomness_degenerate(self):
        assert decrypt(SMALL, 3, Ciphertext(c=1, d=16, params=SMALL)) == 16

    def test_randomized_encryption(self):
        c1 = encrypt_with_nonce(SMALL, 18, 16, nonce(SMALL, 1))
        c2 = encrypt_with_nonce(SMALL, 18, 16, nonce(SMALL, 2))
        assert (c1.c, c1.d) != (c2.c, c2.d)
        assert decrypt(SMALL, 3, c1) == decrypt(SMALL, 3, c2) == 16

    def test_message_outside_subgroup_rejected(self):
        # 5 is a quadratic non-residue mod 23, so not in the order-11 subgroup
        assert pow(5, SMALL.q, SMALL.p) != 1
        with pytest.raises(MessageNotInSubgroup):
            encrypt_with_nonce(SMALL, 18, 5, nonce(SMALL, 0))

    def test_bad_ciphertext_rejected(self):
        with pytest.raises(InvalidCiphertext):
            decrypt(SMALL, 3, Ciphertext(c=5, d=16, params=SMALL))

    def test_round_trip_thousand(self):
        params = generate_params(64, seed=123)
        pair = keygen(params, rng_seed=11)
        rng = random.Random(99)
        for i in range(1000):
            m = pow(params.g, rng.randrange(params.q), params.p)
            assert decrypt(params, pair.sk, encrypt_with_nonce(params, pair.pk, m, nonce(params, i))) == m

    def test_all_outputs_in_subgroup(self):
        params = generate_params(32, seed=3)
        pair = keygen(params, 4)
        ct = encrypt_with_nonce(params, pair.pk, params.g, nonce(params, 5))
        for x in (pair.pk, ct.c, ct.d, decrypt(params, pair.sk, ct)):
            assert pow(x, params.q, params.p) == 1


class TestHomomorphism:
    def test_product_example(self):
        # Enc(16) * Enc(16) decrypts to 16*16 = 256 = 3 (mod 23)
        ct1 = encrypt_with_nonce(SMALL, 18, 16, nonce(SMALL, 1))
        ct2 = encrypt_with_nonce(SMALL, 18, 16, nonce(SMALL, 2))
        assert decrypt(SMALL, 3, hom_mul(ct1, ct2)) == 3

    def test_identity_element(self):
        ct = encrypt_with_nonce(SMALL, 18, 9, nonce(SMALL, 1))
        one = encrypt_with_nonce(SMALL, 18, 1, nonce(SMALL, 2))
        assert decrypt(SMALL, 3, hom_mul(ct, one)) == 9

    def test_scalar_is_plaintext_power(self):
        params = generate_params(48, seed=5)
        pair = keygen(params, rng_seed=6)
        rng = random.Random(7)
        for i in range(50):
            x, a = rng.randrange(params.q), rng.randrange(params.q)
            m = pow(params.g, x, params.p)
            ct = encrypt_with_nonce(params, pair.pk, m, nonce(params, i))
            expected = pow(params.g, x * a % params.q, params.p)
            assert decrypt(params, pair.sk, hom_scalar(ct, a)) == expected

    def test_params_mismatch(self):
        other = generate_params(32, seed=1)
        pair = keygen(other, 1)
        with pytest.raises(ParamsMismatch):
            hom_mul(
                encrypt_with_nonce(SMALL, 18, 16, nonce(SMALL, 1)),
                encrypt_with_nonce(other, pair.pk, other.g, nonce(other, 2)),
            )

    def test_mul_law_randomized(self):
        params = generate_params(64, seed=321)
        pair = keygen(params, rng_seed=5)
        rng = random.Random(6)
        for i in range(300):
            m1 = pow(params.g, rng.randrange(params.q), params.p)
            m2 = pow(params.g, rng.randrange(params.q), params.p)
            got = decrypt(
                params,
                pair.sk,
                hom_mul(
                    encrypt_with_nonce(params, pair.pk, m1, nonce(params, 2 * i)),
                    encrypt_with_nonce(params, pair.pk, m2, nonce(params, 2 * i + 1)),
                ),
            )
            assert got == m1 * m2 % params.p


class TestSerialization:
    def test_ciphertext_json_round_trip(self):
        # ciphertexts travel inside statement documents
        params = generate_params(32, seed=1)
        pk = keygen(params, 2).pk
        ct = encrypt_with_nonce(params, pk, params.g, r=5)
        statement = zkp.LinearStatement(coefficients=(3,), input_cts=(ct,), output_ct=ct)
        proof = zkp.LogEqProof(A=1, B=1, t=0)
        doc = json.loads(json.dumps(zkp.statement_doc(params, pk, statement, proof)))
        assert doc["output"] == {"c": str(ct.c), "d": str(ct.d)}
        back = zkp.read_statement_doc(doc)[2].output_ct
        assert back == ct
        assert decrypt(params, keygen(params, 2).sk, back) == params.g

    def test_params_json_includes_pk(self):
        assert params_doc(SMALL, 18) == {"p": "23", "q": "11", "g": "4", "pk": "18"}

    def test_key_doc_round_trip(self):
        params = generate_params(64, seed=7)
        keys = keygen(params, 8)
        doc = key_doc(params, keys)
        assert doc == {**params_doc(params, keys.pk), "sk": str(keys.sk)}
        assert read_key_doc(json.loads(json.dumps(doc))) == (params, keys)

    def test_json_integers_accepted(self):
        params = generate_params(32, seed=1)
        pk = keygen(params, 2).pk
        doc = {"p": params.p, "q": params.q, "g": params.g, "pk": pk}
        assert read_params_doc(doc) == (params, pk)

    @pytest.mark.parametrize("doc", [
        [1],
        "p",
        {"p": "23"},
        {"q": "11", "g": "4", "pk": "18"},
    ], ids=["list", "string", "missing-fields", "missing-p"])
    def test_shape_rejected(self, doc):
        with pytest.raises(DocumentInvalid):
            read_params_doc(doc)

    @pytest.mark.parametrize("value", [True, 1.5, 3.0, None, [], {}, "", "0x1f", "abc"])
    def test_non_integer_rejected(self, value):
        params = generate_params(32, seed=1)
        doc = {**params_doc(params, keygen(params, 2).pk), "g": value}
        with pytest.raises(DocumentInvalid, match="params"):
            read_params_doc(doc)

    def test_missing_sk_rejected(self):
        params = generate_params(32, seed=1)
        with pytest.raises(DocumentInvalid, match="sk"):
            read_key_doc(params_doc(params, keygen(params, 2).pk))


class TestValidate:
    """Building a GroupParams checks the group; reading a document adds the
    MIN_GROUP_BITS floor and the key rules."""

    @pytest.mark.parametrize("bits", [16, 17, 32, 64, 1024])
    def test_generated_groups_valid(self, bits):
        params = generate_params(bits, seed=bits)
        assert GroupParams(p=params.p, q=params.q, g=params.g) == params

    def test_floor_shared_with_generate_params(self):
        with pytest.raises(ValueError):
            generate_params(groups.MIN_GROUP_BITS - 1)
        assert generate_params(groups.MIN_GROUP_BITS).p.bit_length() == groups.MIN_GROUP_BITS

    @pytest.mark.parametrize("p, q, g, reason", [
        (32_823, 16_411, 4, "safe prime"),  # q prime, p = 2q + 1 = 3 * 10941
        (32_771, 16_385, 4, "safe prime"),  # p prime, q = 5 * 3277
        (65_543, 32_770, 4, "safe prime"),  # q != (p - 1) / 2
        (65_543, 32_771, 1, "generate"),
        (65_543, 32_771, 0, "generate"),
        (65_543, 32_771, 65_542, "generate"),  # p - 1 has order 2
        (65_543, 32_771, 65_543, "generate"),  # g = p
    ])
    def test_invalid_group_rejected(self, p, q, g, reason):
        with pytest.raises(DocumentInvalid, match=reason):
            GroupParams(p=p, q=q, g=g)

    def test_forged_generator_one_rejected(self):
        """With g = 1 and pk = 1 every proof verifies; such a group cannot be built."""
        with pytest.raises(DocumentInvalid, match="generate"):
            GroupParams(p=23, q=11, g=1)

    def test_document_floor(self):
        # the p = 23 worked example is a group, but no document may name it
        assert SMALL.contains(SMALL.g)
        with pytest.raises(DocumentInvalid, match="fewer than 16 bits"):
            read_params_doc(params_doc(SMALL, 18))

    @pytest.mark.parametrize("pk", [1, 0, -1, "p-1", "p"])
    def test_invalid_pk_rejected(self, pk):
        params = generate_params(64, seed=2024)
        pk = {"p-1": params.p - 1, "p": params.p}.get(pk, pk)
        with pytest.raises(DocumentInvalid, match="pk"):
            read_params_doc(params_doc(params, pk))

    def test_read_validates_the_group(self):
        params = generate_params(64, seed=2024)
        doc = {**params_doc(params, keygen(params, 1).pk), "g": str(params.p - 1)}
        with pytest.raises(DocumentInvalid, match="generate"):
            read_params_doc(doc)

    def test_key_pair_must_match(self):
        params = generate_params(64, seed=2024)
        doc = {**key_doc(params, keygen(params, 1)), "sk": "5"}
        with pytest.raises(DocumentInvalid, match="g\\^sk"):
            read_key_doc(doc)

    @pytest.mark.parametrize("exponent", [1024, 4423, 9689])
    def test_group_above_the_largest_built_is_refused_untested(self, exponent, monkeypatch):
        """A document may not name a p above MAX_GROUP_BITS, the largest group
        generate_params builds. It is refused before any primality test: at
        q = 2^9689 - 1, a Mersenne prime, the test runs all of its rounds on
        9,690-bit numbers."""
        def refuse(n, rounds=40):
            raise AssertionError("a primality test ran")

        q = 2**exponent - 1
        doc = {"p": str(2 * q + 1), "q": str(q), "g": "4", "pk": "16"}
        monkeypatch.setattr(groups, "is_prime", refuse)
        with pytest.raises(DocumentInvalid, match=f"more than {groups.MAX_GROUP_BITS} bits"):
            read_params_doc(doc)
        assert groups.MAX_GROUP_BITS == generate_params(1024).p.bit_length() == 1024

    def test_pinned_prime_needs_no_primality_test(self, monkeypatch):
        def refuse(n, rounds=40):
            raise AssertionError("the pinned prime was re-tested")

        params = generate_params(1024)
        doc = key_doc(params, keygen(params, 3))
        monkeypatch.setattr(groups, "is_prime", refuse)
        assert read_key_doc(doc) == (params, keygen(params, 3))
        assert generate_params(1024) == params


GROUP_64 = generate_params(64, seed=2024)
GROUP_1024 = generate_params(1024)
PK_64 = keygen(GROUP_64, rng_seed=1).pk
PK_1024 = keygen(GROUP_1024, rng_seed=1).pk


def comb_width(params: GroupParams) -> int:
    """Exponent bits the comb of a base mod p covers: 10 rows of 4 blocks, so
    p's bit length rounded up to a multiple of 40."""
    return 40 * -(-params.p.bit_length() // 40)


# Groups whose bit length is not a multiple of the comb width: 17, 33 and 100
# bits round up to 40, 40 and 120, where a rounding to 32 bits would give 32,
# 64 and 128.
ODD_GROUPS = [generate_params(bits, seed=bits) for bits in (17, 33, 100)]
ODD_KEYED = [(params, keygen(params, rng_seed=1).pk) for params in ODD_GROUPS]
COMB_GROUPS = [(GROUP_64, PK_64), (GROUP_1024, PK_1024)] + ODD_KEYED
COMB_IDS = ["64", "1024", "17", "33", "100"]


def block_boundary_bits(params: GroupParams) -> list[int]:
    """Bits i*a + j*b and i*a + j*b - 1 for every row i < 10 and block j < 4."""
    b = comb_width(params) // 40
    starts = [i * 4 * b + j * b for i in range(10) for j in range(4)]
    return sorted({k for s in starts for k in (s, s - 1) if k >= 0})


def entry_exponent(params: GroupParams, j: int, u: int) -> int:
    """The exponent of entry u of table j: the sum of 2^(i*a + j*b) over the bits i of u."""
    b = comb_width(params) // 40
    return sum(1 << (i * 4 * b + j * b) for i in range(10) if u >> i & 1)


class TestFixedBasePow:
    @pytest.mark.parametrize("params, pk", COMB_GROUPS, ids=COMB_IDS)
    def test_edge_exponents(self, params, pk):
        width = comb_width(params)
        exponents = [0, 1, 2, 255, 256, params.q - 1, params.q, params.p - 1,
                     (1 << width) - 1, 1 << width, (1 << width) + 12345, 3 << (2 * width)]
        bits = block_boundary_bits(params)
        exponents += [1 << k for k in bits] + [sum(1 << k for k in bits)]
        for base in (params.g, pk):
            for e in exponents:
                assert fixed_base_pow(base, e, params.p) == pow(base, e, params.p), e

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pow_on_odd_widths(self, data):
        params, pk = data.draw(st.sampled_from(ODD_KEYED))
        e = data.draw(st.integers(min_value=0, max_value=(1 << comb_width(params)) - 1))
        for base in (params.g, pk):
            assert fixed_base_pow(base, e, params.p) == pow(base, e, params.p)

    @given(e=st.integers(min_value=0, max_value=GROUP_64.q - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_pow_64(self, e):
        for base in (GROUP_64.g, PK_64):
            assert fixed_base_pow(base, e, GROUP_64.p) == pow(base, e, GROUP_64.p)

    @given(e=st.integers(min_value=0, max_value=GROUP_1024.q - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_pow_1024(self, e):
        for base in (GROUP_1024.g, PK_1024):
            assert fixed_base_pow(base, e, GROUP_1024.p) == pow(base, e, GROUP_1024.p)

    @given(e=st.integers(min_value=1 << comb_width(GROUP_64), max_value=1 << 300)
           | st.integers(max_value=-1, min_value=-(1 << 300)))
    @settings(max_examples=100, deadline=None)
    def test_exponents_outside_the_table_fall_back_to_pow(self, e):
        assert fixed_base_pow(GROUP_64.g, e, GROUP_64.p) == pow(GROUP_64.g, e, GROUP_64.p)

    @pytest.mark.parametrize("params, pk", COMB_GROUPS, ids=COMB_IDS)
    def test_comb_table_matches_row_powers(self, params, pk):
        """Entry u of table j is base^(sum of 2^(i*a + j*b) over the bits i of u).
        A new table holds the entries whose bits lie in one half of the rows;
        a power fills any other entry it reads."""
        b = comb_width(params) // 40
        one_half = [u for u in range(1024) if u < 32 or u % 32 == 0]
        samples = [1, 2, 3, 31, 32, 33, 128, 255, 256, 512, 768, 992, 1023]
        samples += random.Random(params.p).sample(range(1, 1024), 6)
        groups.comb_table.cache_clear()
        for base in (params.g, pk):
            tables = groups.comb_table(base, params.p)
            assert len(tables) == groups._COMB_BLOCKS == 4
            for j, table in enumerate(tables):
                assert len(table) == 2 ** groups._COMB_ROWS == 1024
                assert [u for u, entry in enumerate(table) if entry is not None] == one_half
                for u in one_half:
                    assert table[u] == pow(base, entry_exponent(params, j, u), params.p), (j, u)
            for u in samples:
                # column u in every column of every block: one read of entry u per table
                e = ((1 << b) - 1) * sum(entry_exponent(params, j, u) for j in range(4))
                assert fixed_base_pow(base, e, params.p) == pow(base, e, params.p), u
                for j, table in enumerate(tables):
                    assert table[u] == pow(base, entry_exponent(params, j, u), params.p), (j, u)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_bases_fill_tables_that_match_pow(self, data):
        """Powers of two bases, taken in any order from cleared tables, equal
        pow, and so does every entry they filled."""
        params, pk = data.draw(st.sampled_from([(GROUP_64, PK_64)] + ODD_KEYED))
        width = comb_width(params)
        calls = data.draw(st.lists(
            st.tuples(st.sampled_from([params.g, pk]), st.integers(0, (1 << width) - 1)),
            min_size=1, max_size=12,
        ))
        groups.comb_table.cache_clear()
        for base, e in calls:
            assert fixed_base_pow(base, e, params.p) == pow(base, e, params.p), (base, e)
        for base in {base for base, _ in calls}:
            for j, table in enumerate(groups.comb_table(base, params.p)):
                for u, entry in enumerate(table):
                    if entry is not None:
                        assert entry == pow(base, entry_exponent(params, j, u), params.p), (j, u)

    def test_cold_verify_fills_less_than_half_of_each_table(self):
        """A one-shot verification takes one power of g and one of pk, so it
        fills only the entries those two powers read."""
        params, pk = GROUP_1024, PK_1024
        statement, proof = zkp.prove_linear(params, pk, [3, 1, 4], [11, 22, 33], [2, -1, 5], 7)
        groups.comb_table.cache_clear()
        assert zkp.verify_linear(params, pk, statement, proof)
        assert groups.comb_table.cache_info().currsize == 2
        for base in (params.g, pk):
            for table in groups.comb_table(base, params.p):
                filled = sum(entry is not None for entry in table)
                assert 63 < filled < len(table) // 2, filled

    def test_setup_builds_no_table(self):
        """Parameters and keys come from pow; the first encryption, proof or
        verification builds the comb, so setup never pays for it."""
        groups.comb_table.cache_clear()
        params = generate_params(1024)
        keygen(params, rng_seed=5)
        assert groups.comb_table.cache_info().currsize == 0
        encrypt_with_nonce(params, keygen(params, rng_seed=5).pk, params.g, nonce(params, 1))
        assert groups.comb_table.cache_info().currsize == 2


class TestMembership:
    @pytest.mark.parametrize("params", [GROUP_64, GROUP_1024], ids=["64", "1024"])
    def test_p_minus_g_is_not_a_member(self, params):
        # p = 2q + 1 with q odd, so -1 is a non-residue and p - g is outside
        assert params.contains(params.g)
        outside = params.p - params.g
        assert pow(outside, params.q, params.p) != 1
        assert not params.contains(outside)

    @pytest.mark.parametrize("params", [SMALL, GROUP_64, GROUP_1024], ids=["23", "64", "1024"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_eulers_criterion(self, params, data):
        x = data.draw(st.integers(min_value=-params.p, max_value=2 * params.p))
        assert params.contains(x) == (0 < x < params.p and pow(x, params.q, params.p) == 1)

    def test_jacobi_matches_sympy(self):
        rng = random.Random(8)
        for _ in range(500):
            n = rng.randrange(1, 1 << rng.choice([8, 64, 1024])) | 1
            a = rng.randrange(-2 * n, 2 * n)
            assert groups.jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)

    def test_loose_order_group_rejected(self):
        # in the "group" of order p - 1 every unit would be a member, by Fermat
        with pytest.raises(DocumentInvalid, match="safe prime"):
            GroupParams(p=GROUP_64.p, q=GROUP_64.p - 1, g=GROUP_64.g)

    def test_generator_outside_the_subgroup_rejected(self):
        with pytest.raises(DocumentInvalid, match="generate"):
            GroupParams(p=GROUP_64.p, q=GROUP_64.q, g=GROUP_64.p - GROUP_64.g)

    def test_out_of_range_rejected(self):
        for x in (0, -GROUP_64.g, GROUP_64.p, GROUP_64.p + GROUP_64.g):
            assert not GROUP_64.contains(x)

    def test_external_encrypt_of_non_member_raises(self):
        outside = GROUP_64.p - GROUP_64.g
        with pytest.raises(MessageNotInSubgroup):
            encrypt_with_nonce(GROUP_64, PK_64, outside, 7)
        with pytest.raises(MessageNotInSubgroup):
            encrypt_with_nonce(SMALL, 18, 5, 2)
