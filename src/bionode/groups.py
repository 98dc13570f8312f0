"""Prime-order multiplicative groups and the ElGamal cryptosystem.

The group is the order-q subgroup of Z_p* for a safe prime p = 2q + 1.
Messages are group elements; integer payloads are carried in the exponent
(encode_exponent), so every homomorphic operation below stays inside the
subgroup. All randomness is drawn from explicitly seeded generators, which
makes every operation replayable.

A GroupParams is valid by construction: building one raises DocumentInvalid (the
one refusal of a params, key, statement, quote or scenario document) unless
p = 2q + 1 is a safe prime (the pinned 1024-bit one is known by value) and
g != 1 is a quadratic residue. The subgroup is then exactly the quadratic
residues: x^q = (x|p) for 0 < x < p by Euler's criterion, so membership is a
Jacobi symbol (jacobi), not a full-size power. The same identity gives
x^(q-k) = (x|p) * (x^-1)^k for 0 < x < p, in the subgroup or not: hom_scalar
uses it when k mod q lies nearer q than 0 (a small negative k), and pays one
inversion per ciphertext and a short power and a Jacobi symbol per component.

Powers of a fixed base (the generator, a public key) go through a Lim-Lee comb
(fixed_base_pow; C. H. Lim and P. J. Lee, "More Flexible Exponentiation with
Precomputation", CRYPTO 1994) of 10 rows and 4 column blocks of b = ceil(bits/40)
bits; row i, bit k holds exponent bit 4b*i + k. Table j holds, for each 10-bit
column u, the product of the row powers of block j that u selects, so a 1024-bit
power takes 26 squarings and up to 104 multiplications instead of about 1200.
Tables are filled on first read: a base's first use computes its 40 row
powers (1,014 squarings at 1024 bits, about one pow) and the 63 entries of each
table whose bits lie in one half of the rows (248 multiplications); any other
entry is one product of two of those, taken when a power first reads it, so a
one-shot power pays for the entries it touches. A base whose entries are all
filled holds about 687 KiB at 1024 bits; comb_table keeps the tables of the
last four bases.

params_doc / read_params_doc are the codec of the params document {"p", "q",
"g", "pk"}; a key file adds "sk". Reading builds the group, so checks it, and
adds the document rules: p has MIN_GROUP_BITS to MAX_GROUP_BITS bits, pk != 1
is a member, and a key file's pk is g^sk. field reads every field of the params, key,
statement, quote and scenario documents; DocumentInvalid refuses any of them.
"""

from __future__ import annotations

import functools
import random
from contextlib import suppress
from dataclasses import dataclass


class GroupError(Exception):
    pass


class MessageNotInSubgroup(GroupError):
    pass


class InvalidCiphertext(GroupError):
    pass


class ParamsMismatch(GroupError):
    pass


class DocumentInvalid(ValueError):
    """A params, key, statement, quote or scenario document that is malformed, named by the path
    from its root to the field (`inputs[0].d: missing`), or breaks a rule, named by its message alone."""

    def __init__(self, problem: str, path: list | None = None):
        super().__init__(problem)
        self.path = path  # keys from the root, an int for a list index; None for a broken rule

    def __str__(self) -> str:
        steps = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in self.path or ())
        return f"{steps.removeprefix('.')}: {self.args[0]}" if steps else self.args[0]


MIN_GROUP_BITS = 16  # the smallest p that generate_params builds and a document may name
MAX_SEARCHED_BITS = 256  # the largest p generate_params searches for; the search grows steeply with size


# 1024-bit MODP group (RFC 2409, Oakley group 2). p is a safe prime; the
# squares of Z_p* form the prime-order subgroup we use, generated by 4 = 2^2.
_MODP_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)

_PINNED_SAFE_PRIMES = {1024: _MODP_1024}
MAX_GROUP_BITS = max(_PINNED_SAFE_PRIMES)  # the largest p generate_params builds and a document may name

_MILLER_RABIN_ROUNDS = 40  # random witnesses above the deterministic-base range
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test (deterministic bases below 3.3e24)."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 3_317_044_064_679_887_385_961_981:
        bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    else:
        # witnesses derived from n so the test itself stays deterministic
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(_MILLER_RABIN_ROUNDS)]
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd n > 0, by binary reciprocity (Cohen, GTM 138, 1.4.2)."""
    a, sign = a % n, 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):  # (2|n) = -1 iff n = 3, 5 mod 8
            sign = -sign
        if a & 3 == 3 and n & 3 == 3:  # reciprocity: (a|n) = -(n|a) iff a = n = 3 mod 4
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


# Lim-Lee comb shape: _COMB_ROWS rows of the exponent, each cut into _COMB_BLOCKS
# blocks of _comb_block(p) bits. A column of a block indexes its table of
# 2^_COMB_ROWS entries by two bytes: rows 0-7 set bits of the low byte, rows 8-9
# of the high byte.
_COMB_ROWS = 10
_COMB_BLOCKS = 4
# The column bits of rows 0-4 and of rows 5-9; an entry is the product of the
# entries of its two halves (see comb_table).
_LOW_ROWS = (1 << _COMB_ROWS // 2) - 1
_HIGH_ROWS = (1 << _COMB_ROWS) - 1 - _LOW_ROWS


def _comb_block(p: int) -> int:
    return -(-p.bit_length() // (_COMB_BLOCKS * _COMB_ROWS))


# Turns the '0'/'1' digits of row i into the bytes 0 / 2^(i mod 8) of byte plane i // 8.
_ROW_BITS = [bytes.maketrans(b"01", bytes([0, 1 << i % 8])) for i in range(_COMB_ROWS)]


@functools.lru_cache(maxsize=4)
def comb_table(base: int, p: int) -> tuple[list[int | None], ...]:
    """The 4 comb tables of `base` mod p, 1,024 entries each (10 rows x 4 blocks).

    With block width b = _comb_block(p) and row width a = 4b, entry u of
    table j is the product of base^(2^(i*a + j*b)) over the bits i set in u.
    A table is built holding the 63 entries whose bits all lie in rows 0-4
    or all in rows 5-9, and None elsewhere; fixed_base_pow fills any other
    entry when it first reads it, and the filled entries stay with the
    cached tables.
    """
    b = _comb_block(p)
    # base^(2^(k*b)) for k < 40; row i of block j is k = 4i + j
    powers = [base % p]
    for _ in range(_COMB_BLOCKS * _COMB_ROWS - 1):
        powers.append(pow(powers[-1], 1 << b, p))
    half = _COMB_ROWS // 2
    tables = []
    for j in range(_COMB_BLOCKS):
        rows = powers[j::_COMB_BLOCKS]
        low, high = [1], [1]
        for row in rows[:half]:
            low += [t * row % p for t in low]
        for row in rows[half:]:
            high += [t * row % p for t in high]
        table = [None] * (1 << _COMB_ROWS)
        table[:len(low)] = low  # u = 0 .. 31
        table[::len(low)] = high  # u = 0, 32, .., 992
        tables.append(table)
    return tuple(tables)


def fixed_base_pow(base: int, e: int, p: int) -> int:
    """pow(base, e, p), by the comb of `base` when 0 <= e < 2^(40b)."""
    b = _comb_block(p)
    a = _COMB_BLOCKS * b
    if e < 0 or e >> (_COMB_ROWS * a):
        return pow(base, e, p)
    tables = comb_table(base, p)
    # byte a-1-k of plane i // 8 has bit i mod 8 set iff exponent bit i*a + k is set
    mask = (1 << a) - 1
    planes = [0, 0]
    for i in range(_COMB_ROWS):
        digits = format(e >> (i * a) & mask, f"0{a}b").encode()
        planes[i >> 3] |= int.from_bytes(digits.translate(_ROW_BITS[i]), "big")
    low, high = (plane.to_bytes(a, "big") for plane in planes)
    columns = [lo | hi << 8 for lo, hi in zip(low, high)]
    # block j is columns a-(j+1)b .. a-jb-1; walk the blocks together
    r = 1
    for column in zip(*(columns[k:k + b] for k in range(a - b, -1, -b))):
        r = r * r % p
        for u, table in zip(column, tables):
            if u:
                entry = table[u]
                if entry is None:
                    entry = table[u] = table[u & _LOW_ROWS] * table[u & _HIGH_ROWS] % p
                r = r * entry % p
    return r


@dataclass(frozen=True)
class GroupParams:
    """The order-q subgroup of Z_p* for a safe prime p = 2q + 1, generated by g."""

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if self.q != (self.p - 1) // 2 or not (
            self.p in _PINNED_SAFE_PRIMES.values() or (is_prime(self.q) and is_prime(self.p))
        ):
            raise DocumentInvalid("p is not a safe prime 2q + 1")
        if self.g == 1 or not self.contains(self.g):
            raise DocumentInvalid("g does not generate the order-q subgroup")

    def contains(self, x: int) -> bool:
        """Membership test for the order-q subgroup: the quadratic residues."""
        return 0 < x < self.p and jacobi(x, self.p) == 1


@dataclass(frozen=True)
class KeyPair:
    sk: int
    pk: int


@dataclass(frozen=True)
class Ciphertext:
    """ElGamal ciphertext (c, d) = (g^r, pk^r * m) under `params`."""

    c: int
    d: int
    params: GroupParams


def generate_params(bits: int, seed: int = 0) -> GroupParams:
    """Build a safe-prime group with a `bits`-bit modulus.

    For well-known production sizes a pinned standard modulus is returned
    (searching for a fresh 1024-bit safe prime takes minutes and buys
    nothing here); test sizes from MIN_GROUP_BITS to MAX_SEARCHED_BITS are
    searched deterministically from the seed, and any other size is refused.
    """
    if bits in _PINNED_SAFE_PRIMES:
        p = _PINNED_SAFE_PRIMES[bits]
        return GroupParams(p=p, q=(p - 1) // 2, g=4)
    if not MIN_GROUP_BITS <= bits <= MAX_SEARCHED_BITS:
        raise ValueError(f"a group has {MIN_GROUP_BITS} to {MAX_SEARCHED_BITS} bits, "
                         f"or a pinned size {sorted(_PINNED_SAFE_PRIMES)}; got {bits}")
    rng = random.Random(seed)
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not is_prime(q):
            continue
        p = 2 * q + 1
        if p.bit_length() != bits or not is_prime(p):
            continue
        # any non-identity square generates the order-q subgroup
        while True:
            h = rng.randrange(2, p - 1)
            g = pow(h, 2, p)
            if g != 1:
                return GroupParams(p=p, q=q, g=g)


def keygen(params: GroupParams, rng_seed: int) -> KeyPair:
    """Draw sk uniformly from [1, q-1] and set pk = g^sk."""
    rng = random.Random(rng_seed)
    sk = rng.randrange(1, params.q)
    return KeyPair(sk=sk, pk=pow(params.g, sk, params.p))


def encode_exponent(params: GroupParams, x: int) -> int:
    """Encode the integer x as the group element g^x."""
    return fixed_base_pow(params.g, x % params.q, params.p)


def encrypt_with_nonce(params: GroupParams, pk: int, m: int, r: int) -> Ciphertext:
    """Encrypt the subgroup element m with explicit randomness r (provers retain it)."""
    if not params.contains(m):
        raise MessageNotInSubgroup(f"{m} is not in the order-{params.q} subgroup")
    r %= params.q
    c = fixed_base_pow(params.g, r, params.p)
    d = fixed_base_pow(pk, r, params.p) * m % params.p
    return Ciphertext(c=c, d=d, params=params)


def decrypt(params: GroupParams, sk: int, ct: Ciphertext) -> int:
    """Recover m = d / c^sk."""
    if not (params.contains(ct.c) and params.contains(ct.d)):
        raise InvalidCiphertext("ciphertext component outside the subgroup")
    return ct.d * pow(ct.c, -(sk % params.q), params.p) % params.p


def hom_mul(ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    """Componentwise product: decrypts to the product of the two plaintexts."""
    if ct1.params != ct2.params:
        raise ParamsMismatch("ciphertexts come from different groups")
    p = ct1.params.p
    return Ciphertext(c=ct1.c * ct2.c % p, d=ct1.d * ct2.d % p, params=ct1.params)


def hom_scalar(ct: Ciphertext, k: int) -> Ciphertext:
    """Componentwise k-th power: decrypts to m^k (scalar action in the exponent).

    Each component x is raised to e = k mod q. When q - e < e, as for a small
    negative k, and both components lie in 1..p-1, one inversion of c*d gives
    c^-1 = d/(cd) and d^-1 = c/(cd), and each power is taken as
    (x|p) * (x^-1)^(q-e), which Euler's criterion x^q = (x|p) makes equal to
    x^e for every such x, in the subgroup or not. Otherwise each component is
    raised to e as it is, so every result is pow(x, e, p) to the bit.
    """
    p, q = ct.params.p, ct.params.q
    e, c, d = k % q, ct.c, ct.d
    if q - e < e and 0 < c < p and 0 < d < p:
        inv = pow(c * d, -1, p)
        c, d = (jacobi(x, p) * pow(y * inv % p, q - e, p) % p for x, y in ((c, d), (d, c)))
    else:
        c, d = pow(c, e, p), pow(d, e, p)
    return Ciphertext(c=c, d=d, params=ct.params)


def field(doc, key, kind, default=...):
    """kind(doc[key]) for a JSON object doc (or a list and an index), else kind(default), which a default of
    ... refuses. A refusal's path gains key as it passes, so a valid document builds none."""
    try:
        value = doc[key]
    except KeyError:
        if default is ...:
            raise DocumentInvalid("missing", [key]) from None
        value = default
    except TypeError:  # doc is not an object
        raise expected("an object", doc) from None
    try:
        return kind(value)
    except DocumentInvalid as exc:
        if exc.path is not None:
            exc.path.insert(0, key)
        raise


def fields(doc, kinds: dict) -> dict:
    """{key: field(doc, key, kind)} for each key of kinds that the JSON object doc has."""
    return {key: field(doc, key, kind) for key, kind in kinds.items() if key in doc_object(doc)}


def expected(kind: str, value) -> DocumentInvalid:
    return DocumentInvalid(f"expected {kind}, got {value!r:.40}", [])


def typed(cls, kind: str):
    """The kind of a JSON value that is a cls, such as str; any other is refused as not `kind`."""
    def read(value):
        if isinstance(value, cls):
            return value
        raise expected(kind, value)
    return read


doc_object, doc_list = typed(dict, "an object"), typed(list, "a list")


def each(kind):
    """The kind of a JSON list of items of kind, read as a tuple; a refusal names the item's index."""
    return lambda value: tuple([field(value, i, kind) for i in range(len(doc_list(value)))])


def doc_int(value) -> int:
    """A decimal string or a JSON integer."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        with suppress(ValueError):  # a string of no integer
            return int(value)
    raise expected("an integer", value)


def params_doc(params: GroupParams, pk: int) -> dict:
    return {"p": str(params.p), "q": str(params.q), "g": str(params.g), "pk": str(pk)}


def read_params_doc(doc) -> tuple[GroupParams, int]:
    """The inverse of params_doc; the group and the key must be valid."""
    p, q, g, pk = (field(doc, k, doc_int) for k in ("p", "q", "g", "pk"))
    if p.bit_length() < MIN_GROUP_BITS:
        raise DocumentInvalid(f"p has fewer than {MIN_GROUP_BITS} bits")
    if p.bit_length() > MAX_GROUP_BITS:  # refused before GroupParams tests a prime of that size
        raise DocumentInvalid(f"p has more than {MAX_GROUP_BITS} bits")
    params = GroupParams(p=p, q=q, g=g)
    if pk == 1 or not params.contains(pk):
        raise DocumentInvalid("pk is not a subgroup element other than 1")
    return params, pk


def key_doc(params: GroupParams, keys: KeyPair) -> dict:
    return {**params_doc(params, keys.pk), "sk": str(keys.sk)}


def read_key_doc(doc) -> tuple[GroupParams, KeyPair]:
    params, pk = read_params_doc(doc)
    sk = field(doc, "sk", doc_int)
    if pow(params.g, sk, params.p) != pk:
        raise DocumentInvalid("pk is not g^sk")
    return params, KeyPair(sk=sk, pk=pk)
