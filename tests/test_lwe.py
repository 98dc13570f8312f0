"""Ring-LWE scheme: round trips, homomorphism, packing, noise headroom.

The plaintext oracle multiplies polynomials with numpy (full convolution,
then negacyclic fold) -- written independently of the library's pure-int
schoolbook loop. The exhaustive inner-product sweep covers every pair of
4-bit vectors.
"""

import itertools
import random

import numpy as np
import pytest

from bionode.groups import ParamsMismatch
from bionode.lwe import (
    PROFILES,
    LweCiphertext,
    LweParams,
    PlaintextOutOfRange,
    VectorTooLong,
    centered,
    decrypt_raw,
    encode_forward,
    encode_reverse,
    lwe_add,
    lwe_decrypt,
    lwe_encrypt,
    lwe_keygen,
    lwe_mul,
    poly_mul,
)

TINY = LweParams(d=4, q=12289, t=2, sigma=3.0)
SMALL = PROFILES["test-small"]
EXH = PROFILES["test-exhaustive"]
DEFAULT = PROFILES["default"]


def ring_mul_oracle(a, b, modulus, d):
    """Independent negacyclic product: full convolution folded with sign flip."""
    full = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    out = np.zeros(d, dtype=np.int64)
    for k, coeff in enumerate(full):
        if k < d:
            out[k] += coeff
        else:
            out[k - d] -= coeff
    return tuple(int(x) % modulus for x in out)


def rand_plain(rng, params):
    return tuple(rng.randrange(params.t) for _ in range(params.d))


class TestPolyArithmetic:
    def test_schoolbook_matches_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            d = rng.choice([4, 8, 16])
            q = rng.choice([97, 12289, 65537])
            a = tuple(rng.randrange(q) for _ in range(d))
            b = tuple(rng.randrange(q) for _ in range(d))
            # oracle works on centered values to stay in int64 range
            ac = [centered(x, q) for x in a]
            bc = [centered(x, q) for x in b]
            assert poly_mul(a, b, q) == ring_mul_oracle(ac, bc, q, d)

    def test_x_power_d_wraps_negatively(self):
        # x^(d-1) * x = x^d = -1 in Z_q[x]/(x^d+1)
        d, q = 8, 97
        xd1 = tuple(1 if i == d - 1 else 0 for i in range(d))
        x1 = tuple(1 if i == 1 else 0 for i in range(d))
        assert poly_mul(xd1, x1, q) == tuple([q - 1] + [0] * (d - 1))


class TestKeygen:
    def test_public_key_relation(self):
        # p0 + p1*s must equal -t*e with small e
        from bionode.lwe import poly_add

        keys = lwe_keygen(TINY, rng_seed=5)
        p0, p1 = keys.pk
        lhs = poly_add(p0, poly_mul(p1, keys.sk, TINY.q), TINY.q)
        vals = [centered(x, TINY.q) for x in lhs]
        assert all(v % TINY.t == 0 for v in vals)
        e = [-v // TINY.t for v in vals]
        assert max(abs(x) for x in e) <= 6 * TINY.sigma

    def test_secret_key_bounded(self):
        for seed in range(50):
            keys = lwe_keygen(SMALL, rng_seed=seed)
            assert all(
                abs(centered(c, SMALL.q)) <= 6 * SMALL.sigma for c in keys.sk
            )

    def test_distinct_seeds_distinct_keys(self):
        assert lwe_keygen(SMALL, 1).sk != lwe_keygen(SMALL, 2).sk


class TestEncryptDecrypt:
    def test_worked_example(self):
        keys = lwe_keygen(TINY, rng_seed=1)
        m = (1, 0, 1, 1)
        ct = lwe_encrypt(TINY, keys.pk, m, rng_seed=2)
        assert lwe_decrypt(TINY, keys.sk, ct) == m

    def test_zero_plaintext(self):
        keys = lwe_keygen(TINY, rng_seed=3)
        ct = lwe_encrypt(TINY, keys.pk, (0, 0, 0, 0), rng_seed=4)
        assert lwe_decrypt(TINY, keys.sk, ct) == (0, 0, 0, 0)

    def test_out_of_range_plaintext(self):
        keys = lwe_keygen(TINY, rng_seed=3)
        with pytest.raises(PlaintextOutOfRange):
            lwe_encrypt(TINY, keys.pk, (0, 0, 0, 5), rng_seed=1)

    def test_degenerate_unmasked_ciphertext(self):
        keys = lwe_keygen(TINY, rng_seed=6)
        ct = LweCiphertext(parts=((1, 0, 1, 1), (0, 0, 0, 0)), params=TINY)
        assert lwe_decrypt(TINY, keys.sk, ct) == (1, 0, 1, 1)

    def test_thousand_round_trips(self):
        keys = lwe_keygen(SMALL, rng_seed=10)
        rng = random.Random(11)
        for i in range(1000):
            m = rand_plain(rng, SMALL)
            assert lwe_decrypt(SMALL, keys.sk, lwe_encrypt(SMALL, keys.pk, m, i)) == m


class TestHomomorphism:
    def test_additive_identity(self):
        keys = lwe_keygen(SMALL, rng_seed=1)
        m = (3,) + (0,) * (SMALL.d - 1)
        ct = lwe_add(
            lwe_encrypt(SMALL, keys.pk, m, 1),
            lwe_encrypt(SMALL, keys.pk, (0,) * SMALL.d, 2),
        )
        assert lwe_decrypt(SMALL, keys.sk, ct) == m

    def test_addition_matches_plaintext_sum(self):
        keys = lwe_keygen(SMALL, rng_seed=2)
        rng = random.Random(3)
        for i in range(300):
            m1, m2 = rand_plain(rng, SMALL), rand_plain(rng, SMALL)
            got = lwe_decrypt(
                SMALL,
                keys.sk,
                lwe_add(
                    lwe_encrypt(SMALL, keys.pk, m1, 2 * i),
                    lwe_encrypt(SMALL, keys.pk, m2, 2 * i + 1),
                ),
            )
            assert got == tuple((a + b) % SMALL.t for a, b in zip(m1, m2))

    def test_mismatched_degree_addition_pads(self):
        keys = lwe_keygen(EXH, rng_seed=4)
        m1, m2, m3 = ((1,) + (0,) * 7, (2,) + (0,) * 7, (3,) + (0,) * 7)
        prod = lwe_mul(
            lwe_encrypt(EXH, keys.pk, m1, 1), lwe_encrypt(EXH, keys.pk, m2, 2)
        )
        mixed = lwe_add(prod, lwe_encrypt(EXH, keys.pk, m3, 3))
        assert lwe_decrypt(EXH, keys.sk, mixed)[0] == (1 * 2 + 3) % EXH.t

    def test_multiplicative_identity(self):
        keys = lwe_keygen(EXH, rng_seed=5)
        m = (4, 1, 0, 2, 0, 0, 3, 1)
        one = (1,) + (0,) * 7
        got = lwe_decrypt(
            EXH,
            keys.sk,
            lwe_mul(lwe_encrypt(EXH, keys.pk, m, 7), lwe_encrypt(EXH, keys.pk, one, 8)),
        )
        assert got == m

    def test_product_grows_ciphertext(self):
        keys = lwe_keygen(EXH, rng_seed=6)
        m = (1,) + (0,) * 7
        ct = lwe_encrypt(EXH, keys.pk, m, 9)
        assert len(lwe_mul(ct, ct).parts) == 3

    def test_multiplication_matches_ring_oracle(self):
        keys = lwe_keygen(EXH, rng_seed=7)
        rng = random.Random(8)
        for i in range(300):
            m1, m2 = rand_plain(rng, EXH), rand_plain(rng, EXH)
            got = lwe_decrypt(
                EXH,
                keys.sk,
                lwe_mul(
                    lwe_encrypt(EXH, keys.pk, m1, 2 * i),
                    lwe_encrypt(EXH, keys.pk, m2, 2 * i + 1),
                ),
            )
            assert got == ring_mul_oracle(m1, m2, EXH.t, EXH.d)

    def test_params_mismatch_rejected(self):
        k1, k2 = lwe_keygen(SMALL, 1), lwe_keygen(EXH, 1)
        with pytest.raises(ParamsMismatch):
            lwe_add(
                lwe_encrypt(SMALL, k1.pk, (0,) * SMALL.d, 1),
                lwe_encrypt(EXH, k2.pk, (0,) * EXH.d, 1),
            )


class TestPacking:
    def test_forward_positions(self):
        poly = encode_forward(EXH, [1, 0, 1])
        assert poly == (1, 0, 1, 0, 0, 0, 0, 0)

    def test_reverse_positions(self):
        poly = encode_reverse(EXH, [1, 1, 1])
        assert poly == (0, 1, 1, 1, 0, 0, 0, 0)  # x^3, x^2, x^1

    def test_zero_vectors(self):
        assert encode_forward(EXH, [0, 0, 0]) == (0,) * 8
        assert encode_reverse(EXH, [0, 0]) == (0,) * 8

    def test_too_long_rejected(self):
        with pytest.raises(VectorTooLong):
            encode_forward(EXH, [1] * 5)

    def test_non_bits_rejected(self):
        with pytest.raises(PlaintextOutOfRange):
            encode_forward(EXH, [0, 2])


class TestInnerProduct:
    def extract(self, params, keys, P, Q, seed):
        from bionode.lwe import extract_inner_product

        ct = lwe_mul(
            lwe_encrypt(params, keys.pk, encode_forward(params, P), seed),
            lwe_encrypt(params, keys.pk, encode_reverse(params, Q), seed + 1),
        )
        return extract_inner_product(params, keys.sk, ct, len(P))

    def test_worked_example(self):
        keys = lwe_keygen(EXH, rng_seed=12)
        assert self.extract(EXH, keys, [1, 0, 1], [1, 1, 1], 0) == 2

    def test_zero_vectors(self):
        keys = lwe_keygen(EXH, rng_seed=13)
        assert self.extract(EXH, keys, [0, 0, 0, 0], [0, 0, 0, 0], 2) == 0

    def test_exhaustive_four_bits(self):
        keys = lwe_keygen(EXH, rng_seed=14)
        seed = 0
        for P in itertools.product((0, 1), repeat=4):
            for Q in itertools.product((0, 1), repeat=4):
                expected = sum(p * q for p, q in zip(P, Q))
                assert self.extract(EXH, keys, list(P), list(Q), seed) == expected
                seed += 2

    def test_random_n32_default_profile(self):
        keys = lwe_keygen(DEFAULT, rng_seed=15)
        rng = random.Random(16)
        for i in range(60):
            P = [rng.randint(0, 1) for _ in range(32)]
            Q = [rng.randint(0, 1) for _ in range(32)]
            assert self.extract(DEFAULT, keys, P, Q, 2 * i) == sum(
                p * q for p, q in zip(P, Q)
            )


class TestNoiseCalibration:
    def test_margin_after_one_multiplication(self):
        """Worst observed post-product noise must sit at least 2x inside the
        decryption budget q/(2t)."""
        for params in (EXH, DEFAULT):
            keys = lwe_keygen(params, rng_seed=21)
            rng = random.Random(22)
            budget = params.q / (2 * params.t)
            worst = 0
            for i in range(100):
                m1, m2 = rand_plain(rng, params), rand_plain(rng, params)
                prod = lwe_mul(
                    lwe_encrypt(params, keys.pk, m1, 2 * i),
                    lwe_encrypt(params, keys.pk, m2, 2 * i + 1),
                )
                raw = decrypt_raw(params, keys.sk, prod)
                plain = ring_mul_oracle(m1, m2, params.t, params.d)
                for r, pl in zip(raw, plain):
                    diff = r - pl
                    assert diff % params.t == 0
                    worst = max(worst, abs(diff) // params.t)
            assert worst * 2 <= budget, f"noise {worst} vs budget {budget}"

