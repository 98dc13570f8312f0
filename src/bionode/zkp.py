"""Verifiable encrypted linear computation.

A prover holds inputs x_1..x_n encrypted as ElGamal ciphertexts of g^{x_i}
and wants to convince anyone that a published output ciphertext encrypts
g^y for y = sum(a_i * x_i) with public coefficients a_i, without revealing
the x_i or y. Three pieces cooperate:

* Feldman-style commitments (vss_commit / vss_verify_share) make the
  coefficient vector publicly checkable.
* aggregate() folds the input ciphertexts with the public coefficients:
  C = prod c_i^{a_i}, D = prod d_i^{a_i} is itself an encryption of g^y.
* A Chaum-Pedersen discrete-log-equality proof on the componentwise
  quotient of the aggregate and the published output shows both encrypt
  the same plaintext. The Fiat-Shamir challenge hashes the group, the two
  bases, their images and the commitments, not the statement itself.

Sliding-window convolution reduces to the same primitive; conv_as_linear
lays out one coefficient vector per output position.

Every power of the generator and of the public key (encryption nonces, the
log-eq commitments, the witness check and the verifier's g^t, pk^t) goes
through the fixed-base comb of groups.fixed_base_pow. Every GroupParams is a
valid group, so nothing here re-checks g; membership (GroupParams.contains)
is a Jacobi symbol. Each plaintext is tested; logeq_verify tests the ranges
and both bases, then the two equations, and then the other four elements of
the statement and proof, so a rejected proof stops at its first failed check.

statement_doc / read_statement_doc are the codec of the statement document: a
params document (groups), coefficients, ciphertexts {"c", "d"}, proof {"A", "B", "t"}.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .groups import (
    Ciphertext,
    DocumentInvalid,
    GroupParams,
    ParamsMismatch,
    doc_int,
    encode_exponent,
    encrypt_with_nonce,
    fixed_base_pow,
    hom_mul,
    hom_scalar,
    params_doc,
    read_params_doc,
)


class WitnessInconsistent(Exception):
    pass


class KernelLargerThanInput(Exception):
    pass


@dataclass(frozen=True)
class LinearStatement:
    coefficients: tuple[int, ...]
    input_cts: tuple[Ciphertext, ...]
    output_ct: Ciphertext


@dataclass(frozen=True)
class LogEqProof:
    """Proof (A, B, t) that two elements share a discrete log: A = g1^r,
    B = g2^r, t = r + w*z mod q with challenge z derived from the statement."""

    A: int
    B: int
    t: int


def vss_commit(params: GroupParams, coefficients: list[int]) -> tuple[int, ...]:
    """Exponent commitments h_i = g^{a_i}, one per polynomial coefficient."""
    return tuple(encode_exponent(params, a) for a in coefficients)


def poly_eval(coefficients: list[int], x: int, modulus: int) -> int:
    """Horner evaluation of sum(a_i x^i) mod modulus."""
    acc = 0
    for a in reversed(coefficients):
        acc = (acc * x + a) % modulus
    return acc


def vss_verify_share(
    params: GroupParams, commitment: tuple[int, ...], share: tuple[int, int]
) -> bool:
    """Check g^b == prod h_i^{a^i} for a share (a, b) claimed to be (a, f(a))."""
    a, b = share
    lhs = encode_exponent(params, b)
    rhs = 1
    power = 1  # a^i mod q
    for h_i in commitment:
        rhs = rhs * pow(h_i, power, params.p) % params.p
        power = power * a % params.q
    return lhs == rhs


def aggregate(params: GroupParams, statement: LinearStatement) -> Ciphertext:
    """Fold inputs with public coefficients: (C, D) = (prod c_i^{a_i}, prod d_i^{a_i}).

    A small a_i of either sign costs two short powers, not full-size ones (see hom_scalar)."""
    if len(statement.coefficients) != len(statement.input_cts):
        raise ValueError("coefficient/input length mismatch")
    acc = Ciphertext(c=1, d=1, params=params)
    for a, ct in zip(statement.coefficients, statement.input_cts):
        if ct.params != params:
            raise ParamsMismatch("input ciphertext from a different group")
        acc = hom_mul(acc, hom_scalar(ct, a))
    return acc


_CHALLENGE_TAG = b"bionode/logeq/v1"


def _challenge(params: GroupParams, g1, h1, g2, h2, A, B) -> int:
    """Fiat-Shamir challenge over the group, the two bases, their images and
    the commitments A, B, reduced mod q; the statement itself is not hashed."""
    h = hashlib.sha256()
    h.update(_CHALLENGE_TAG)
    for v in (params.p, params.q, params.g, g1, h1, g2, h2, A, B):
        raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
        h.update(len(raw).to_bytes(4, "big"))
        h.update(raw)
    return int.from_bytes(h.digest(), "big") % params.q


def logeq_prove(
    params: GroupParams,
    g1: int,
    h1: int,
    g2: int,
    h2: int,
    witness: int,
    rng_seed: int,
) -> LogEqProof:
    """Prove h1 = g1^w and h2 = g2^w for the same (secret) w."""
    w = witness % params.q
    if fixed_base_pow(g1, w, params.p) != h1 or fixed_base_pow(g2, w, params.p) != h2:
        raise WitnessInconsistent("witness does not satisfy the statement")
    rng = random.Random(rng_seed)
    r = rng.randrange(0, params.q)
    A = fixed_base_pow(g1, r, params.p)
    B = fixed_base_pow(g2, r, params.p)
    z = _challenge(params, g1, h1, g2, h2, A, B)
    t = (r + w * z) % params.q
    return LogEqProof(A=A, B=B, t=t)


def logeq_verify(
    params: GroupParams, g1: int, h1: int, g2: int, h2: int, proof: LogEqProof
) -> bool:
    """Check g1^t == A * h1^z and g2^t == B * h2^z with recomputed z, all six
    elements in the subgroup, stopping at the first check that fails: ranges
    (_challenge cannot encode a negative value), then g1 and g2 (no comb table
    is built for a non-member), equation 1 (a statement whose h1 or h2 differs
    moves z and fails it), equation 2, and last the Jacobi tests of the rest."""
    p, rest = params.p, (h1, h2, proof.A, proof.B)
    if not (0 <= proof.t < params.q and all(0 < v < p for v in rest)
            and params.contains(g1) and params.contains(g2)):
        return False
    z = _challenge(params, g1, h1, g2, h2, proof.A, proof.B)
    if fixed_base_pow(g1, proof.t, p) != proof.A * pow(h1, z, p) % p:
        return False
    return (fixed_base_pow(g2, proof.t, p) == proof.B * pow(h2, z, p) % p
            and all(map(params.contains, rest)))


def _quotient(p: int, agg: Ciphertext, out: Ciphertext) -> tuple[int, int]:
    """(agg.c / out.c, agg.d / out.d) mod p by one inversion, of out.c * out.d;
    both components of `out` lie in 1..p-1, so their product is invertible."""
    inv = pow(out.c * out.d, -1, p)
    return agg.c * out.d % p * inv % p, agg.d * out.c % p * inv % p


def prove_linear(
    params: GroupParams,
    pk: int,
    inputs_plain: list[int],
    randomness: list[int],
    coefficients: list[int],
    rng_seed: int,
) -> tuple[LinearStatement, LogEqProof]:
    """Publish Enc(g^{x_i}), a fresh Enc(g^y), and a proof they are consistent.

    The prover knows the inputs and every encryption nonce r_i, so it can
    compute the aggregate nonce r' = sum(a_i r_i) and run the equality
    proof on the quotient of the aggregate and the output ciphertext with
    witness r' - r_out. Nothing about the x_i or y leaks beyond the claim.
    """
    if not inputs_plain:
        raise ValueError("empty input vector")
    if not (len(inputs_plain) == len(randomness) == len(coefficients)):
        raise ValueError("inputs, randomness, coefficients must align")
    q, p, g = params.q, params.p, params.g
    rng = random.Random(rng_seed)

    input_cts = tuple(
        encrypt_with_nonce(params, pk, encode_exponent(params, x), r)
        for x, r in zip(inputs_plain, randomness)
    )
    y = sum(a * x for a, x in zip(coefficients, inputs_plain))
    r_out = rng.randrange(1, q)
    output_ct = encrypt_with_nonce(params, pk, encode_exponent(params, y), r_out)
    statement = LinearStatement(
        coefficients=tuple(coefficients), input_cts=input_cts, output_ct=output_ct
    )

    r_prime = sum(a * r for a, r in zip(coefficients, randomness)) % q
    u1, u2 = _quotient(p, aggregate(params, statement), output_ct)
    witness = (r_prime - r_out) % q
    proof = logeq_prove(params, g, u1, pk, u2, witness, rng.randrange(2**63))
    return statement, proof


def verify_linear(
    params: GroupParams, pk: int, statement: LinearStatement, proof: LogEqProof
) -> bool:
    """Accept iff the quotient of aggregate and output encrypts the identity."""
    p, out = params.p, statement.output_ct
    # outside 1..p-1 an output component has no inverse mod p, and an input
    # component is another spelling of a residue the proof would also accept
    cts = (*statement.input_cts, out)
    if not (statement.input_cts and all(0 < x < p for ct in cts for x in (ct.c, ct.d))):
        return False
    try:
        agg = aggregate(params, statement)
    except (ValueError, ParamsMismatch):  # lengths differ, or a foreign input
        return False
    u1, u2 = _quotient(p, agg, out)
    return logeq_verify(params, params.g, u1, pk, u2, proof)


def statement_doc(
    params: GroupParams, pk: int, statement: LinearStatement, proof: LogEqProof
) -> dict:
    out = statement.output_ct
    return {
        "params": params_doc(params, pk),
        "coefficients": [str(a) for a in statement.coefficients],
        "inputs": [{"c": str(ct.c), "d": str(ct.d)} for ct in statement.input_cts],
        "output": {"c": str(out.c), "d": str(out.d)},
        "proof": {"A": str(proof.A), "B": str(proof.B), "t": str(proof.t)},
    }


def read_statement_doc(doc) -> tuple[GroupParams, int, LinearStatement, LogEqProof]:
    """The inverse of statement_doc. The group and the key are validated;
    whether the proof holds is for verify_linear to say."""
    if not (isinstance(doc, dict) and all(
        isinstance(doc.get(k), list) for k in ("coefficients", "inputs")
    )):
        raise DocumentInvalid("expected an object with lists of coefficients and inputs")
    params, pk = read_params_doc(doc.get("params"))
    try:
        cts = [Ciphertext(doc_int(x["c"]), doc_int(x["d"]), params)
               for x in [*doc["inputs"], doc["output"]]]
        coefficients = tuple(doc_int(a) for a in doc["coefficients"])
        proof = LogEqProof(*(doc_int(doc["proof"][k]) for k in ("A", "B", "t")))
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentInvalid(f"malformed statement: {exc!r}") from exc
    return params, pk, LinearStatement(coefficients, tuple(cts[:-1]), cts[-1]), proof


def conv_as_linear(n: int, kernel: list[int]) -> list[list[int]]:
    """Coefficient layouts for a length-n input convolved with the kernel.

    Output j is sum_i kernel[i] * x[j+i]; each layout is a full-length
    coefficient vector with the kernel placed at window j, so each window
    can be proven with prove_linear independently.
    """
    m = len(kernel)
    if m > n:
        raise KernelLargerThanInput(f"kernel {m} longer than input {n}")
    layouts = []
    for j in range(n - m + 1):
        row = [0] * n
        row[j : j + m] = kernel
        layouts.append(row)
    return layouts
