"""Embedding validation, the exact anomaly form, verdict wording, and the
cross-module agreement with the symbolic trace-word engine."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from liegauge.anomaly import (
    GaugeEmbedding,
    anomaly_form,
    fundamental_vector,
    quadratic_form_via_words,
    verdict,
)
from liegauge.exact import Matrix
from liegauge.liealg import make_classical, trace_form
from liegauge.lgio import (
    classical_from_label,
    embedding_from_json,
    embedding_to_json,
    load_embedding,
    matrix_from_json,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SL2 = make_classical("sl", 2)
SL3 = make_classical("sl", 3)
Z2 = Matrix.zero(2, 2)
Z3 = Matrix.zero(3, 3)


def left_only(alg):
    zero = Matrix.zero(alg.matrix_size, alg.matrix_size)
    return GaugeEmbedding(alg, alg.matrix_size, alg.basis,
                          tuple(zero for _ in alg.basis))


def adjoint(alg):
    return GaugeEmbedding(alg, alg.matrix_size, alg.basis, alg.basis)


def random_invertible(rng, n):
    while True:
        m = Matrix(n, n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(n * n)])
        if m.rank() == n:
            return m


# -- construction --------------------------------------------------------------


def test_rejects_wrong_image_count():
    with pytest.raises(ValueError, match="3 images"):
        GaugeEmbedding(SL2, 2, SL2.basis[:2], SL2.basis[:2])


def test_rejects_wrong_image_size():
    with pytest.raises(ValueError, match="2x2"):
        GaugeEmbedding(SL2, 3, SL2.basis, SL2.basis)


def test_rejects_traceful_image_in_special_linear_target():
    gl1 = make_classical("gl", 1)
    one = Matrix.from_rows([[1]])
    with pytest.raises(ValueError, match="nonzero trace"):
        GaugeEmbedding(gl1, 1, (one,), (one,))
    emb = GaugeEmbedding(gl1, 1, (one,), (one,), special_linear_target=False)
    assert anomaly_form(emb).anomaly_free


def test_homomorphism_fail_fast_names_pair():
    h, e, f = SL2.basis
    broken = (h, e.scale(2), f)  # [2e, f] = 2h, but the relations need h
    with pytest.raises(ValueError, match=r"pair \(1, 2\)"):
        GaugeEmbedding(SL2, 2, broken, (Z2, Z2, Z2))
    with pytest.raises(ValueError, match="right"):
        GaugeEmbedding(SL2, 2, SL2.basis, broken)


# -- fundamental vector field --------------------------------------------------


def test_fundamental_vector_adjoint_at_identity_vanishes():
    emb = adjoint(SL3)
    for a in range(emb.dim):
        assert fundamental_vector(emb, a, Matrix.identity(3)).is_zero()


def test_fundamental_vector_left_only():
    emb = left_only(SL2)
    g0 = Matrix.from_rows([[1, 2], [0, 1]])
    for a in range(3):
        assert fundamental_vector(emb, a, g0) == SL2.basis[a] * g0


def test_fundamental_vector_side_swap_conjugation():
    # swapping the two sides and inverting the base point conjugates and
    # negates the field: X'_a(g^-1) = -g^-1 X_a(g) g^-1
    rng = random.Random(9)
    emb = adjoint(SL2)
    swapped = GaugeEmbedding(SL2, 2, emb.T_R, emb.T_L)
    for _ in range(10):
        g0 = random_invertible(rng, 2)
        ginv = g0.inverse()
        for a in range(3):
            lhs = fundamental_vector(swapped, a, ginv)
            rhs = (ginv * fundamental_vector(emb, a, g0) * ginv).scale(-1)
            assert lhs == rhs


def test_fundamental_vector_errors():
    emb = adjoint(SL2)
    with pytest.raises(ValueError, match="3x3"):
        fundamental_vector(emb, 0, Matrix.identity(3))
    with pytest.raises(ValueError, match="invertible"):
        fundamental_vector(emb, 0, Matrix.zero(2, 2))


# -- anomaly form ---------------------------------------------------------------


def test_adjoint_sl3_cancels():
    rep = anomaly_form(adjoint(SL3))
    assert rep.Q.is_zero()
    assert rep.anomaly_free
    assert rep.invariance_checked
    assert rep.normalization == (Fraction(1, 2), -1)


def test_left_only_sl2_frozen_matrix():
    rep = anomaly_form(left_only(SL2))
    assert rep.Q == Matrix.from_rows([[2, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert not rep.anomaly_free


def test_left_only_sl3_equals_trace_form():
    rep = anomaly_form(left_only(SL3))
    assert rep.Q == trace_form(SL3)
    assert not rep.Q.is_zero()


def test_block_duplication_cancels():
    emb = load_embedding(FIXTURES / "block_dup_sl2_in_sl4.json")
    assert emb.target_size == 4
    rep = anomaly_form(emb)
    assert rep.Q.is_zero()


def test_equal_sides_always_cancel():
    rng = random.Random(100)
    block = [m.hstack(Matrix.zero(2, 1)) for m in SL2.basis]
    embed3 = [Matrix.from_rows(b.to_lists() + [[0, 0, 0]]) for b in block]
    for _ in range(6):
        s = random_invertible(rng, 3)
        sinv = s.inverse()
        images = tuple(s * t * sinv for t in embed3)
        rep = anomaly_form(GaugeEmbedding(SL2, 3, images, images))
        assert rep.Q.is_zero()


def test_conjugating_one_side_preserves_q():
    rng = random.Random(321)
    base = anomaly_form(left_only(SL2)).Q
    for _ in range(6):
        s = random_invertible(rng, 2)
        sinv = s.inverse()
        images = tuple(s * t * sinv for t in SL2.basis)
        rep = anomaly_form(GaugeEmbedding(SL2, 2, images,
                                          (Z2, Z2, Z2)))
        assert rep.Q == base


def test_gaussian_domain_supported():
    su2 = make_classical("su", 2)
    rep = anomaly_form(adjoint(su2))
    assert rep.anomaly_free


# -- verdicts -------------------------------------------------------------------


def test_verdict_adjoint_sl3_full_equivalence():
    v = verdict(adjoint(SL3))
    assert v.anomaly_free
    assert "anomaly-free" in v.statements
    assert "equivariant extension exists" in v.statements
    assert "Cartan-model closed lift exists" in v.statements
    assert v.warnings == ()


def test_verdict_left_only_sl3_anomalous():
    v = verdict(left_only(SL3))
    assert not v.anomaly_free
    assert "anomalous" in v.statements
    assert "no equivariant extension exists" in v.statements
    assert v.warnings == ()


def test_verdict_sl2_flags_topological_claim():
    v = verdict(left_only(SL2))
    assert not v.anomaly_free
    assert "Cartan-model obstruction is nonzero" in v.statements
    assert all("extension" not in s for s in v.statements)
    assert [w["id"] for w in v.warnings] == ["W5"]


def test_verdict_sl2_flag_present_even_when_free():
    emb = load_embedding(FIXTURES / "block_dup_sl2_in_sl4.json")
    v = verdict(emb)
    assert v.anomaly_free
    assert "Cartan-model obstruction vanishes" in v.statements
    assert all("extension" not in s for s in v.statements)
    assert [w["id"] for w in v.warnings] == ["W5"]


def test_verdict_downgraded_for_non_special_linear_domain():
    so3 = make_classical("so", 3)
    v = verdict(adjoint(so3))
    assert v.anomaly_free
    assert "Cartan-model obstruction vanishes" in v.statements
    assert all("extension" not in s for s in v.statements)
    assert v.warnings == ()


def test_verdict_as_dict_round_trips_through_json():
    v = verdict(left_only(SL2))
    blob = json.dumps(v.as_dict(), sort_keys=True)
    assert json.loads(blob)["anomaly_free"] is False


# -- cross-module oracle --------------------------------------------------------


def test_word_engine_reproduces_anomaly_entries():
    for emb in (left_only(SL2), adjoint(SL3), left_only(SL3)):
        rep = anomaly_form(emb)
        for a in range(emb.dim):
            for b in range(emb.dim):
                val = quadratic_form_via_words(emb, a, b)
                expected = rep.Q[a, b] * Fraction(1, 2)
                assert val.parts.get(-1, Fraction(0)) == expected
                assert set(val.parts) <= {-1}


# -- fixtures and file format ---------------------------------------------------


def test_fixture_verdicts():
    expected = {
        "adjoint_sl3": True,
        "left_only_sl3": False,
        "left_only_sl2": False,
        "block_dup_sl2_in_sl4": True,
    }
    for name, free in expected.items():
        emb = load_embedding(FIXTURES / f"{name}.json")
        assert anomaly_form(emb).anomaly_free is free, name


def test_embedding_json_round_trip():
    emb = left_only(SL2)
    again = embedding_from_json(embedding_to_json(emb, domain_label="sl2"))
    assert anomaly_form(again).Q == anomaly_form(emb).Q
    assert again.domain.name == "sl(2)"


def _product_trace_form(emb):
    """Q through full matrix products and traces: the second route."""
    dim = emb.dim
    return Matrix(dim, dim, [
        (emb.T_L[a] * emb.T_L[b]).trace() - (emb.T_R[a] * emb.T_R[b]).trace()
        for a in range(dim) for b in range(dim)])


def _seeded_embeddings():
    rng = random.Random(8080)
    for alg in (SL2, SL3, make_classical("su", 2), make_classical("so", 3)):
        n = alg.matrix_size
        for _ in range(3):
            s = random_invertible(rng, n)
            sinv = s.inverse()
            left = tuple(s * t * sinv for t in alg.basis)
            zero = Matrix.zero(n, n)
            right = alg.basis if rng.random() < 0.5 else tuple(
                zero for _ in alg.basis)
            yield GaugeEmbedding(alg, n, left, right)


def test_anomaly_form_matches_product_traces():
    embeddings = [load_embedding(path)
                  for path in sorted(FIXTURES.glob("*.json"))]
    assert len(embeddings) == 4
    embeddings += list(_seeded_embeddings())
    assert any(emb.domain.scalar == "gaussian" for emb in embeddings)
    for emb in embeddings:
        Q = anomaly_form(emb).Q
        assert Q == _product_trace_form(emb)
        # int-first entries: an integral value is never a Fraction
        assert not any(type(x) is Fraction and x.denominator == 1
                       for x in Q.entries())


def test_classical_labels():
    assert classical_from_label("sl3").dim == 8
    assert classical_from_label("so(4)").dim == 6
    assert classical_from_label(" su2 ").scalar == "gaussian"
    with pytest.raises(ValueError, match="label"):
        classical_from_label("sp4")


def test_matrix_from_json_shapes():
    nested = matrix_from_json([["1", "0"], ["0", "1"]], size=2)
    assert nested == Matrix.identity(2)
    flat = matrix_from_json(["1", "0", "0", "1"], size=2)
    assert flat == Matrix.identity(2)
    gaussian = matrix_from_json([["0", "1"]], size=1)
    assert gaussian[0, 0] * gaussian[0, 0] == -1
    with pytest.raises(ValueError, match="expected 2 rows or 4"):
        matrix_from_json(["1", "0", "0"], size=2)


def test_embedding_json_diagnostics():
    good = json.loads((FIXTURES / "left_only_sl2.json").read_text())
    for key in ("domain", "target_size", "T_L", "T_R"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(ValueError, match=key):
            embedding_from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["T_L"][0][0][0] = "not-a-number"
    with pytest.raises(ValueError, match=r"T_L\[0\]"):
        embedding_from_json(bad)
