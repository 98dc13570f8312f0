"""Ring-LWE homomorphic encryption over R_q = Z_q[x] / (x^d + 1).

Construction:
    keygen    s, e <- chi;  p1 <- uniform R_q;  pk = (p0, p1), p0 = -(p1*s + t*e)
    encrypt   u, f, g <- chi;  (c0, c1) = (p0*u + t*g + m,  p1*u + t*f)
    decrypt   m_hat = sum(c_i * s^i) in R_q, centered into (-q/2, q/2], then mod t
    mul       convolution of the ciphertext part vectors; degree grows by one
              per multiplication and no relinearization is performed, which
              is all a single-depth matching circuit needs.

Two bit vectors P and Q packed as F(P) = sum p_i x^i and
F(Q) = sum q_j x^(n-j) place their dot product in the coefficient of x^n
of the product, with no wrap-around as long as n <= d/2. That is the whole
trick behind matching encrypted templates with one ciphertext multiply.

Polynomial multiplication is one big-integer product (Kronecker substitution);
coefficients are Python ints so the 60-bit default modulus cannot overflow.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .groups import ParamsMismatch


class PlaintextOutOfRange(Exception):
    pass


class VectorTooLong(Exception):
    pass


@dataclass(frozen=True)
class LweParams:
    """Ring degree d (power of two), ciphertext modulus q, plaintext modulus t,
    Gaussian parameter sigma (samples truncated at 6*sigma)."""

    d: int
    q: int
    t: int
    sigma: float

    def __post_init__(self):
        if self.d & (self.d - 1) or self.d < 2:
            raise ValueError("ring degree must be a power of two")
        if not self.t < self.q:
            raise ValueError("plaintext modulus must be below ciphertext modulus")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @cached_property
    def _gaussian_table(self) -> tuple[int, tuple[float, ...]]:
        """Bits per proposal r on [0, 2B], B = int(6*sigma), and P(accept r - B)."""
        bound = int(6 * self.sigma)
        two_sigma_sq = 2 * self.sigma * self.sigma
        accept = tuple(math.exp(-(k * k) / two_sigma_sq) for k in range(-bound, bound + 1))
        return len(accept).bit_length(), accept


# q prime, q = 1 (mod 2d); no NTT needs that now, but a new q would move every byte.
PROFILES = {
    "test-small": LweParams(d=16, q=65537, t=17, sigma=3.0),
    "test-exhaustive": LweParams(d=8, q=549755814449, t=17, sigma=3.0),
    "default": LweParams(d=64, q=576460752303430529, t=257, sigma=3.0),
}

Poly = tuple[int, ...]


@dataclass(frozen=True)
class LweKeyPair:
    sk: Poly
    pk: tuple[Poly, Poly]
    params: LweParams


@dataclass(frozen=True)
class LweCiphertext:
    parts: tuple[Poly, ...]
    params: LweParams


def _zero(d: int) -> Poly:
    return (0,) * d


def poly_add(a: Poly, b: Poly, q: int) -> Poly:
    return tuple((x + y) % q for x, y in zip(a, b))


def poly_sub(a: Poly, b: Poly, q: int) -> Poly:
    return tuple((x - y) % q for x, y in zip(a, b))


def poly_scale(a: Poly, k: int, q: int) -> Poly:
    return tuple(x * k % q for x in a)


def poly_mul(a: Poly, b: Poly, q: int) -> Poly:
    """Negacyclic product in Z_q[x]/(x^d + 1): the inputs, reduced mod q, are packed
    w bytes per coefficient, enough for a convolution slot's largest value d*(q-1)^2."""
    d = len(a)
    w = (2 * q.bit_length() + d.bit_length() + 7) // 8
    pa, pb = (int.from_bytes(b"".join((x % q).to_bytes(w, "little") for x in p), "little") for p in (a, b))
    prod = (pa * pb).to_bytes(2 * d * w, "little")
    acc = [int.from_bytes(prod[i : i + w], "little") for i in range(0, 2 * d * w, w)]
    return tuple((acc[k] - acc[k + d]) % q for k in range(d))


def sample_gaussian_poly(rng: random.Random, params: LweParams) -> Poly:
    """d discrete Gaussians mod q by rejection from a uniform proposal on [-6s, 6s]; an
    attempt draws what rng.randint(-B, B) draws (getrandbits until in range), then rng.random()."""
    (bits, accept), q, d = params._gaussian_table, params.q, params.d
    n, getrandbits, uniform = len(accept), rng.getrandbits, rng.random
    out = []
    while len(out) < d:
        r = getrandbits(bits)
        if r < n and uniform() < accept[r]:
            out.append((r - n // 2) % q)
    return tuple(out)


def sample_uniform_poly(rng: random.Random, params: LweParams) -> Poly:
    return tuple(rng.randrange(params.q) for _ in range(params.d))


def centered(v: int, q: int) -> int:
    """Representative of v mod q in (-q/2, q/2]."""
    r = v % q
    return r - q if r > q // 2 else r


def lwe_keygen(params: LweParams, rng_seed: int) -> LweKeyPair:
    rng = random.Random(rng_seed)
    s = sample_gaussian_poly(rng, params)
    p1 = sample_uniform_poly(rng, params)
    e = sample_gaussian_poly(rng, params)
    p0 = poly_sub(
        _zero(params.d),
        poly_add(poly_mul(p1, s, params.q), poly_scale(e, params.t, params.q), params.q),
        params.q,
    )
    return LweKeyPair(sk=s, pk=(p0, p1), params=params)


def lwe_encrypt(params: LweParams, pk: tuple[Poly, Poly], m: Poly, rng_seed: int) -> LweCiphertext:
    if len(m) != params.d or any(not 0 <= c < params.t for c in m):
        raise PlaintextOutOfRange("plaintext must be length d with coefficients in [0, t)")
    rng = random.Random(rng_seed)
    u = sample_gaussian_poly(rng, params)
    f = sample_gaussian_poly(rng, params)
    g = sample_gaussian_poly(rng, params)
    p0, p1 = pk
    c0 = poly_add(
        poly_add(poly_mul(p0, u, params.q), poly_scale(g, params.t, params.q), params.q),
        m,
        params.q,
    )
    c1 = poly_add(poly_mul(p1, u, params.q), poly_scale(f, params.t, params.q), params.q)
    return LweCiphertext(parts=(c0, c1), params=params)


def decrypt_raw(params: LweParams, sk: Poly, ct: LweCiphertext) -> tuple[int, ...]:
    """Centered coefficients of sum(c_i s^i); exposed for noise measurements."""
    acc = ct.parts[-1]
    for part in reversed(ct.parts[:-1]):  # Horner in s
        acc = poly_add(poly_mul(acc, sk, params.q), part, params.q)
    return tuple(centered(c, params.q) for c in acc)


def lwe_decrypt(params: LweParams, sk: Poly, ct: LweCiphertext) -> Poly:
    return tuple(c % params.t for c in decrypt_raw(params, sk, ct))


def lwe_mul(ct1: LweCiphertext, ct2: LweCiphertext) -> LweCiphertext:
    """Multiply by convolving the part vectors: the new parts are the
    coefficients of (sum c_i z^i) * (sum c'_j z^j)."""
    if ct1.params != ct2.params:
        raise ParamsMismatch("ciphertexts use different ring parameters")
    params = ct1.params
    r, s = len(ct1.parts), len(ct2.parts)
    acc = [_zero(params.d)] * (r + s - 1)
    for i, ci in enumerate(ct1.parts):
        for j, cj in enumerate(ct2.parts):
            acc[i + j] = poly_add(acc[i + j], poly_mul(ci, cj, params.q), params.q)
    return LweCiphertext(parts=tuple(acc), params=params)


def encode_forward(params: LweParams, bits: list[int]) -> Poly:
    """Pack bit i into the coefficient of x^i."""
    n = len(bits)
    if n > params.d // 2:
        raise VectorTooLong(f"{n} bits exceed d/2 = {params.d // 2}")
    if any(b not in (0, 1) for b in bits):
        raise PlaintextOutOfRange("encoding expects a 0/1 vector")
    coeffs = [0] * params.d
    coeffs[:n] = bits
    return tuple(coeffs)


def encode_reverse(params: LweParams, bits: list[int]) -> Poly:
    """Pack bit j into the coefficient of x^(n-j), mirroring encode_forward:
    the forward packing of the reversed bits times x. The coefficient of x^(d-1)
    it shifts out is zero, since n <= d/2."""
    return (0, *encode_forward(params, bits[::-1])[:-1])


def extract_inner_product(params: LweParams, sk: Poly, ct_product: LweCiphertext, n: int) -> int:
    """Read <P, Q> out of the coefficient of x^n after one multiplication.

    Requires n < t, otherwise the dot product wraps around the plaintext
    modulus and the extracted value is meaningless.
    """
    if not n < params.t:
        raise PlaintextOutOfRange("inner product would wrap modulo t")
    plain = lwe_decrypt(params, sk, ct_product)
    return plain[n]
