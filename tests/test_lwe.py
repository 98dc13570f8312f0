"""Ring-LWE scheme: ring products, the Gaussian stream, round trips,
homomorphism, packing, noise headroom, and the bytes of the default ring.

Two oracles check poly_mul, both written independently of the library's
Kronecker-substituted product: oracle_poly_mul, the pure-int schoolbook
loop, exact at every modulus; and a numpy convolution on centered values,
which stays inside int64 only for small moduli and also serves as the
plaintext-ring oracle. randint_sample_gaussian is the rejection sampler as
first written on rng.randint; the library's sampler must draw the same
stream. The exhaustive inner-product sweep covers every pair of 4-bit
vectors.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bionode import cli
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
    lwe_decrypt,
    lwe_encrypt,
    lwe_keygen,
    lwe_mul,
    poly_mul,
    sample_gaussian_poly,
)

GOLDEN = Path(__file__).parent / "golden"
TINY = LweParams(d=4, q=12289, t=2, sigma=3.0)
SMALL = PROFILES["test-small"]
EXH = PROFILES["test-exhaustive"]
DEFAULT = PROFILES["default"]
RINGS = [TINY, *PROFILES.values()]


def oracle_poly_mul(a, b, q):
    """Negacyclic schoolbook product in Z_q[x]/(x^d + 1), on Python ints of
    any size and sign."""
    d = len(a)
    acc = [0] * (2 * d)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            acc[i + j] += ai * bj
    return tuple((acc[k] - acc[k + d]) % q for k in range(d))


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


def randint_sample_gaussian(rng, sigma):
    """Discrete Gaussian by rejection from a uniform proposal on [-6s, 6s],
    as first written on rng.randint: the random stream the library keeps."""
    bound = int(6 * sigma)
    two_sigma_sq = 2 * sigma * sigma
    while True:
        k = rng.randint(-bound, bound)
        if rng.random() < math.exp(-(k * k) / two_sigma_sq):
            return k


def rand_plain(rng, params):
    return tuple(rng.randrange(params.t) for _ in range(params.d))


def monomial(d, i):
    return tuple(int(k == i) for k in range(d))


@st.composite
def ring_operands(draw, reduced=True):
    """A modulus and two operands of one of RINGS. Coefficients lie in
    [0, q), or with reduced=False in (-3q, 3q); both lean towards 0 and q - 1,
    which fill a slot the most."""
    params = draw(st.sampled_from(RINGS))
    q = params.q
    coeff = st.integers(0, q - 1) if reduced else st.integers(-3 * q + 1, 3 * q - 1)
    poly = st.lists(st.one_of(coeff, st.sampled_from((0, q - 1))), min_size=params.d, max_size=params.d)
    return q, tuple(draw(poly)), tuple(draw(poly))


class TestPolyArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(operands=ring_operands())
    def test_matches_schoolbook_oracle(self, operands):
        q, a, b = operands
        assert poly_mul(a, b, q) == oracle_poly_mul(a, b, q)

    @settings(max_examples=200, deadline=None)
    @given(operands=ring_operands(reduced=False))
    def test_unreduced_inputs_are_reduced_first(self, operands):
        """A negative coefficient or one at or above q means the same as its
        residue mod q."""
        q, a, b = operands
        assert poly_mul(a, b, q) == oracle_poly_mul(a, b, q)

    @pytest.mark.parametrize("params", RINGS, ids=lambda p: f"d{p.d}")
    def test_edge_cases(self, params):
        d, q = params.d, params.q
        top = (q - 1,) * d  # every term is (q-1)^2: the largest slot values
        zero = (0,) * d
        for a, b in [(top, top), (zero, zero), (zero, top), (top, zero)]:
            assert poly_mul(a, b, q) == oracle_poly_mul(a, b, q)
        # (-1)(-1) summed over k + 1 terms at x^k, less d - 1 - k wrapped ones
        assert poly_mul(top, top, q) == tuple((2 * k + 2 - d) % q for k in range(d))
        # x^(d-1) * x^(d-1) = x^(2d-2) = -x^(d-2)
        last = monomial(d, d - 1)
        assert poly_mul(last, last, q) == tuple(q - 1 if k == d - 2 else 0 for k in range(d))

    @pytest.mark.parametrize("params", RINGS, ids=lambda p: f"d{p.d}")
    def test_out_of_range_coefficients_do_not_carry(self, params):
        """Coefficients that overflow a slot unreduced (just below a power
        of two far above q, or far below zero) are reduced before packing."""
        d, q = params.d, params.q
        wide = (2 ** (2 * q.bit_length() + d.bit_length() + 8) - 1,) * d
        negative = tuple(-q * k - 1 for k in range(d))
        top = (q - 1,) * d
        for a in (wide, negative):
            assert poly_mul(a, top, q) == oracle_poly_mul(a, top, q)
            assert poly_mul(top, a, q) == poly_mul(top, tuple(x % q for x in a), q)

    def test_matches_numpy_oracle(self):
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


class TestGaussianStream:
    @pytest.mark.parametrize("sigma", [1.0, 3.0, 3.2])
    def test_same_draws_and_state_as_randint_sampler(self, sigma):
        """sample_gaussian_poly draws exactly the randint sampler's values and
        leaves the generator in the same state, so no key, ciphertext or
        match drawn after it moves. A change to randint inside CPython
        fails here."""
        params = LweParams(d=64, q=DEFAULT.q, t=DEFAULT.t, sigma=sigma)
        for seed in range(60):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(5):
                want = tuple(randint_sample_gaussian(theirs, sigma) % params.q for _ in range(params.d))
                assert sample_gaussian_poly(ours, params) == want
            assert ours.getstate() == theirs.getstate()
            assert ours.random() == theirs.random()


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
            lwe_mul(
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
        assert encode_reverse(EXH, [1, 0, 0, 1]) == (0, 1, 0, 0, 1, 0, 0, 0)  # x^4, x^1
        assert encode_reverse(EXH, [0, 1]) == (0, 1, 0, 0, 0, 0, 0, 0)  # x^1

    def test_zero_vectors(self):
        assert encode_forward(EXH, [0, 0, 0]) == (0,) * 8
        assert encode_reverse(EXH, [0, 0]) == (0,) * 8

    def test_too_long_rejected(self):
        for encode in (encode_forward, encode_reverse):
            with pytest.raises(VectorTooLong, match=r"^5 bits exceed d/2 = 4$"):
                encode(EXH, [1] * 5)
            with pytest.raises(VectorTooLong):  # the length is checked before the bits
                encode(EXH, [2] * 5)

    def test_non_bits_rejected(self):
        for encode in (encode_forward, encode_reverse):
            with pytest.raises(PlaintextOutOfRange, match=r"^encoding expects a 0/1 vector$"):
                encode(EXH, [0, 2])


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



TEMPLATE = "10110100111010010110001101011100"


def default_ring_bytes() -> bytes:
    """keygen, two encryptions, their product and its decrypt_raw at the
    default profile, then lwe-match stdout for a genuine probe (3 bits off)
    and an impostor (12 bits off) on seeds 1-3."""
    keys = lwe_keygen(DEFAULT, rng_seed=2024)
    rng = random.Random(2025)
    ct1 = lwe_encrypt(DEFAULT, keys.pk, rand_plain(rng, DEFAULT), rng_seed=1)
    ct2 = lwe_encrypt(DEFAULT, keys.pk, rand_plain(rng, DEFAULT), rng_seed=2)
    product = lwe_mul(ct1, ct2)
    ring = {"sk": keys.sk, "pk": keys.pk, "ct1": ct1.parts, "ct2": ct2.parts,
            "product": product.parts, "raw": decrypt_raw(DEFAULT, keys.sk, product)}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for seed in (1, 2, 3):
            for flips in (3, 12):
                probe = "".join(str(int(b) ^ (i < flips)) for i, b in enumerate(TEMPLATE))
                assert cli.main(["lwe-match", "--template", TEMPLATE, "--probe", probe,
                                 "--threshold", "14", "--seed", str(seed)]) == 0
    return json.dumps(ring, sort_keys=True).encode() + stdout.getvalue().encode()


class TestGoldenRing:
    def test_default_ring_matches_golden_hash(self):
        """Every key, ciphertext and product coefficient at the default
        profile, and lwe-match output, are pinned under tests/golden/; the
        match outcome alone would not show a drift in the random stream."""
        expected = (GOLDEN / "lwe_default.sha256").read_text().strip()
        assert hashlib.sha256(default_ring_bytes()).hexdigest() == expected
