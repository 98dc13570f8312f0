"""Walkthrough: proving a linear computation over encrypted inputs.

The prover publishes ElGamal encryptions of its inputs, an encryption of
the claimed output y = sum(a_i * x_i), and a discrete-log-equality proof
that the output is consistent with folding the inputs under the public
coefficients. The verifier learns nothing about the inputs or the output.
"""

import random

from bionode.groups import decrypt, generate_params, keygen
from bionode.zkp import (
    LinearStatement,
    conv_as_linear,
    prove_linear,
    verify_linear,
)

params = generate_params(64, seed=42)
pair = keygen(params, rng_seed=1)
print(f"group: {params.p.bit_length()}-bit modulus, order {params.q}")

# --- prove y = 3*x1 + 1*x2 + 4*x3 without revealing x or y ----------------

coefficients = [3, 1, 4]
rng = random.Random(2)
inputs = [5, 11, 2]
nonces = [rng.randrange(1, params.q) for _ in inputs]
statement, proof = prove_linear(params, pair.pk, inputs, nonces, coefficients, rng_seed=3)
print("\nhonest proof accepted:", verify_linear(params, pair.pk, statement, proof))

y = sum(a * x for a, x in zip(coefficients, inputs))
print("output ciphertext decrypts to g^y:",
      decrypt(params, pair.sk, statement.output_ct) == pow(params.g, y, params.p))

# a verifier with a tampered copy of the coefficients must reject
tampered = LinearStatement(
    coefficients=(3, 1, 5),
    input_cts=statement.input_cts,
    output_ct=statement.output_ct,
)
print("tampered coefficients accepted:", verify_linear(params, pair.pk, tampered, proof))

# --- convolution is just many linear statements ----------------------------

signal = [2, 7, 1, 8, 2, 8]
kernel = [1, -1]
print(f"\nconvolving {signal} with {kernel}: one proof per window")
windows = conv_as_linear(len(signal), kernel)
for j, coeffs in enumerate(windows):
    nonces = [rng.randrange(1, params.q) for _ in signal]
    st, pr = prove_linear(params, pair.pk, signal, nonces, coeffs, rng_seed=10 + j)
    expected = sum(kernel[i] * signal[j + i] for i in range(len(kernel)))
    fine = verify_linear(params, pair.pk, st, pr)
    print(f"  window {j}: y_{j} = {expected:+d}, proof accepted: {fine}")
