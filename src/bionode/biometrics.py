"""Feature-vector matching, plain and encrypted, plus modality scoring.

Real-valued templates are compared with cosine similarity on `math` alone;
the package needs only the standard library. Encrypted templates are
binarized, packed into ring polynomials and matched with one homomorphic
multiplication (see lwe); quantization maps real vectors to integers.

The weighted scoring of biometric modalities, used to pick which modality
may gate a node, lives here too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from numbers import Real

from . import lwe


class DimensionMismatch(Exception):
    pass


class ZeroVector(Exception):
    pass


class MatchResult(Enum):
    MATCH = "match"
    NO_MATCH = "no_match"


def _floats(*vectors) -> list[tuple[float, ...]]:
    """Inputs as float tuples: DimensionMismatch unless flat, real, of one length; then finite."""
    if any(isinstance(v, (str, bytes, bytearray, dict)) for v in vectors):
        vectors = ()  # text iterates as its characters and a mapping as its keys; neither is a vector
    try:
        out = [tuple(v) for v in vectors]
    except TypeError:  # a scalar
        out = []
    real = all(isinstance(x, Real) for v in out for x in v)
    if not out or len({len(v) for v in out}) > 1 or not real:
        raise DimensionMismatch("inputs must be flat sequences of real numbers, of one length")
    out = [tuple(map(float, v)) for v in out]
    if not all(math.isfinite(x) for v in out for x in v):
        raise ValueError("vectors must be finite")
    return out


def _norm(values: tuple[float, ...]) -> float:
    return math.sqrt(math.fsum(x * x for x in values))


def cosine_similarity(a, b) -> float:
    """Dot product over the product of Euclidean norms, in [-1, 1]."""
    a, b = _floats(a, b)
    if (norms := _norm(a) * _norm(b)) == 0.0:
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    return math.fsum(x * y for x, y in zip(a, b)) / norms


def match_decision(score: float, threshold: float) -> MatchResult:
    """Threshold comparison; the boundary counts as a match."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    return MatchResult.MATCH if score >= threshold else MatchResult.NO_MATCH


@dataclass(frozen=True)
class QuantizedVector:
    values: tuple[int, ...]
    scale: int


def quantize(v, scale: int) -> QuantizedVector:
    """Fixed-point quantization: values[i] = round(v[i] * scale).

    Meant for unit vectors; the input is taken at face value.
    """
    return QuantizedVector(values=tuple(round(x * scale) for x in _floats(v)[0]), scale=scale)


def dot_q(q1: QuantizedVector, q2: QuantizedVector) -> int:
    if len(q1.values) != len(q2.values):
        raise DimensionMismatch("quantized vectors differ in dimension")
    return sum(x * y for x, y in zip(q1.values, q2.values))


def encrypted_match(
    params: lwe.LweParams,
    keys: lwe.LweKeyPair,
    template_bits: list[int],
    probe_bits: list[int],
    threshold_count: int,
    rng_seed: int = 0,
) -> MatchResult:
    """Match two binary templates without ever decrypting them individually.

    Pipeline: pack template forward and probe reversed, encrypt both,
    multiply the ciphertexts once, and read the dot product out of the
    known coefficient of the decrypted product.
    """
    if len(template_bits) != len(probe_bits):
        raise DimensionMismatch("template and probe lengths differ")
    n = len(template_bits)
    ct_t = lwe.lwe_encrypt(params, keys.pk, lwe.encode_forward(params, template_bits), rng_seed)
    ct_p = lwe.lwe_encrypt(params, keys.pk, lwe.encode_reverse(params, probe_bits), rng_seed + 1)
    product = lwe.lwe_mul(ct_t, ct_p)
    score = lwe.extract_inner_product(params, keys.sk, product, n)
    return MatchResult.MATCH if score >= threshold_count else MatchResult.NO_MATCH


FACTOR_WEIGHTS = (6, 6, 5, 5, 10, 8, 10, 3, 10, 8)
ELIGIBILITY_CUTOFF = 147  # strictly above the median score qualifies


@dataclass(frozen=True)
class ModalityProfile:
    """Ten factor levels, each 1..3, circumvention already inverted
    (3 = hard to circumvent)."""

    name: str
    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != 10 or any(l not in (1, 2, 3) for l in self.levels):
            raise ValueError("profile needs ten levels, each in {1,2,3}")


def modality_score(profile: ModalityProfile) -> int:
    return sum(l * w for l, w in zip(profile.levels, FACTOR_WEIGHTS))


def load_modality_fixture() -> list[dict]:
    text = resources.files("bionode.data").joinpath("modalities.json").read_text()
    return json.loads(text)["modalities"]


def score_table(profiles: list[ModalityProfile]) -> list[dict]:
    """Rank profiles by score, flagging the ones eligible to gate a node."""
    rows = [
        {
            "name": p.name,
            "score": modality_score(p),
            "eligible": modality_score(p) > ELIGIBILITY_CUTOFF,
        }
        for p in profiles
    ]
    rows.sort(key=lambda r: (-r["score"], r["name"]))
    return rows
