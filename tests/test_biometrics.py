"""Matching, quantization and modality scoring.

The cosine oracle is 50-digit mpmath arithmetic; the encrypted pipeline is
checked against the plaintext thresholded dot product over every 4-bit
pair.
"""

import itertools
import random

import mpmath
import numpy as np
import pytest

from bionode import lwe
from bionode.biometrics import (
    DimensionMismatch,
    FACTOR_WEIGHTS,
    MatchResult,
    ModalityProfile,
    QuantizedVector,
    ZeroVector,
    cosine_similarity,
    dot_q,
    encrypted_match,
    load_modality_fixture,
    match_decision,
    modality_score,
    quantize,
    score_table,
)


def cosine_oracle(a, b) -> float:
    with mpmath.workdps(50):
        dot = mpmath.fsum(mpmath.mpf(x) * mpmath.mpf(y) for x, y in zip(a, b))
        na = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in a))
        nb = mpmath.sqrt(mpmath.fsum(mpmath.mpf(y) ** 2 for y in b))
        return float(dot / (na * nb))


class TestCosine:
    def test_identical_vectors(self):
        v = [0.3, -1.2, 4.5]
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            assert cosine_similarity(a, b) == pytest.approx(
                cosine_oracle(a, b), abs=1e-12
            )

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = rng.normal(size=8), rng.normal(size=8)
            lam = float(rng.uniform(0.1, 50))
            assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))
            assert cosine_similarity(lam * a, b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-9
            )

    def test_range(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            s = cosine_similarity(rng.normal(size=5), rng.normal(size=5))
            assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        for a, b in [
            ([1, 2], [1, 2, 3]),
            ([[1, 2], [3, 4]], [[1, 2], [3, 4]]),  # nested
            (np.ones((2, 2)), np.ones((2, 2))),
            (3.0, 3.0),  # scalar
            (np.float64(3.0), [3.0]),
            ([float("nan")], [1, 2]),  # length is checked before finiteness
            ("12", "34"),  # text, not a vector of its digits
            (["1", "2"], ["3", "4"]),  # numeric text elements
            ([b"1", b"2"], [3, 4]),
            ([None, 1], [3, 4]),
            ([np.array([1.0]), 2.0], [3, 4]),  # a one-element array is not a number
            ({0: 1.0, 1: 2.0}, {0: 3.0, 1: 4.0}),  # a mapping, not a vector of its keys
            (QuantizedVector(values=(1, 2), scale=10), [1, 2]),  # integers are dot_q's
        ]:
            with pytest.raises(DimensionMismatch):
                cosine_similarity(a, b)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0, 0], [1, 2])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([float("nan"), 1], [1, 2])


class TestDecision:
    def test_match(self):
        assert match_decision(1.0, 0.9) is MatchResult.MATCH

    def test_boundary_is_match(self):
        assert match_decision(0.9, 0.9) is MatchResult.MATCH

    def test_low_similarity_rejected(self):
        # a 34%-similar pair is nowhere near a 0.9 threshold
        assert match_decision(0.34, 0.9) is MatchResult.NO_MATCH

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_decision(0.5, 1.5)


class TestQuantization:
    def test_basis_vector(self):
        q = quantize([1.0, 0.0, 0.0], 1000)
        assert q.values == (1000, 0, 0)
        assert quantize(np.array([1.0, 0.0, 0.0]), 1000) == q

    def test_matches_numpy_rint(self):
        """round(x * scale) is np.rint on the same float64 product: half to even."""
        rng = np.random.default_rng(23)
        for scale in (1000, 2**20, 7):
            v = rng.normal(size=64)
            v /= np.linalg.norm(v)
            assert quantize(v, scale).values == tuple(int(x) for x in np.rint(v * scale))
        ties = np.arange(-20, 21) / 8  # times 4: every odd k gives an exact .5
        assert quantize(ties, 4).values == tuple(int(x) for x in np.rint(ties * 4))
        assert quantize([0.5, 1.5, 2.5, -0.5, -2.5], 1).values == (0, 2, 2, 0, -2)

    @pytest.mark.parametrize("v, error", [
        ([[1.0, 0.0]], DimensionMismatch),
        (np.eye(2), DimensionMismatch),
        (1.0, DimensionMismatch),
        ([float("inf"), 0.0], ValueError),
        ([float("nan")], ValueError),
        ("12", DimensionMismatch),
        ([" 1e0 ", "0"], DimensionMismatch),
    ], ids=["nested", "array-2d", "scalar", "inf", "nan", "text", "text-elements"])
    def test_malformed_input_rejected(self, v, error):
        with pytest.raises(error):
            quantize(v, 1000)

    def test_orthogonal_quantized_dot(self):
        q1 = quantize([1.0, 0.0], 1000)
        q2 = quantize([0.0, 1.0], 1000)
        assert dot_q(q1, q2) == 0

    def test_self_dot_error_bound(self):
        dim, S = 128, 1000
        bound = dim * (2 / S + 1 / S**2)
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            q = quantize(v, S)
            assert abs(dot_q(q, q) / S**2 - 1.0) <= bound

    def test_error_bound_many_pairs(self):
        dim, S = 128, 1000
        bound = dim * (2 / S + 1 / S**2)
        rng = np.random.default_rng(22)
        vs = rng.normal(size=(200, dim))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        quantized = [quantize(v, S) for v in vs]
        checked = 0
        for i in range(len(vs)):
            for j in range(i, min(i + 70, len(vs))):
                exact = float(np.dot(vs[i], vs[j]))
                approx = dot_q(quantized[i], quantized[j]) / S**2
                assert abs(approx - exact) <= bound
                checked += 1
        assert checked >= 10_000


@pytest.fixture(scope="module")
def setup():
    params = lwe.PROFILES["test-exhaustive"]
    return params, lwe.lwe_keygen(params, rng_seed=31)


class TestEncryptedMatch:
    def test_self_match(self, setup):
        params, keys = setup
        bits = [1, 0, 1, 1]
        assert (
            encrypted_match(params, keys, bits, bits, threshold_count=sum(bits))
            is MatchResult.MATCH
        )

    def test_disjoint_supports(self, setup):
        params, keys = setup
        assert (
            encrypted_match(params, keys, [1, 1, 0, 0], [0, 0, 1, 1], threshold_count=1)
            is MatchResult.NO_MATCH
        )

    def test_exhaustive_equivalence_with_plaintext(self, setup):
        params, keys = setup
        seed = 0
        for P in itertools.product((0, 1), repeat=4):
            for Q in itertools.product((0, 1), repeat=4):
                for threshold in (1, 2, 4):
                    expected = (
                        MatchResult.MATCH
                        if sum(p * q for p, q in zip(P, Q)) >= threshold
                        else MatchResult.NO_MATCH
                    )
                    got = encrypted_match(
                        params, keys, list(P), list(Q), threshold, rng_seed=seed
                    )
                    assert got is expected
                seed += 2

    def test_length_mismatch(self, setup):
        params, keys = setup
        with pytest.raises(DimensionMismatch):
            encrypted_match(params, keys, [1, 0], [1], 1)


class TestModalityScore:
    def test_3d_facial(self):
        profile = ModalityProfile("3D Facial Recognition", (3, 3, 2, 3, 2, 3, 3, 3, 3, 3))
        assert modality_score(profile) == 198

    def test_signature(self):
        profile = ModalityProfile("Signature Recognition", (3, 3, 1, 1, 1, 2, 1, 3, 1, 2))
        assert modality_score(profile) == 117

    def test_all_ones_is_sum_of_weights(self):
        profile = ModalityProfile("baseline", (1,) * 10)
        assert modality_score(profile) == sum(FACTOR_WEIGHTS) == 71

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ModalityProfile("bad", (0,) * 10)

    def test_full_fixture_reproduces_published_scores(self):
        fixture = load_modality_fixture()
        assert len(fixture) == 21
        for row in fixture:
            profile = ModalityProfile(row["name"], tuple(row["levels"]))
            assert modality_score(profile) == row["published_score"], row["name"]

    def test_eligibility_set(self):
        fixture = load_modality_fixture()
        table = score_table(
            [ModalityProfile(r["name"], tuple(r["levels"])) for r in fixture]
        )
        eligible = {r["name"] for r in table if r["eligible"]}
        assert "Iris Recognition" in eligible
        assert "Fingerprint" not in eligible
        assert "DNA Matching" not in eligible  # 147 is not strictly above the cutoff
        assert eligible == {
            "Facial Recognition",
            "3D Facial Recognition",
            "Facial Thermography Recognition",
            "Finger/Hand Vein Recognition",
            "Iris Recognition",
            "Retina Recognition",
            "Eye Vein Recognition",
            "Electrocardiography (ECG)",
            "Neurosignatures",
            "Lip Motion Recognition",
        }

    def test_ranked_first_is_3d_face(self):
        fixture = load_modality_fixture()
        table = score_table(
            [ModalityProfile(r["name"], tuple(r["levels"])) for r in fixture]
        )
        assert table[0]["name"] == "3D Facial Recognition"
        assert table[0]["score"] == 198
        scores = [r["score"] for r in table]
        assert scores == sorted(scores, reverse=True)

    def test_empty_report(self):
        assert score_table([]) == []
