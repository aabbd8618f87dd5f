"""Embedding construction, normalization, and JSON Lines round trips."""

import json

import numpy as np
import pytest

from divset import Embedding, EmbeddingSet, ValidationError, load_embeddings, normalize, save_embeddings


class TestEmbedding:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            Embedding("bad", [1.0, float("nan")])
        with pytest.raises(ValidationError, match="non-finite"):
            Embedding("bad", [float("inf"), 0.0])

    def test_rejects_empty_vector(self):
        with pytest.raises(ValidationError):
            Embedding("empty", [])

    def test_dim(self):
        assert Embedding("a", [1.0, 2.0, 3.0]).dim == 3


class TestNormalize:
    def test_three_four_five(self):
        out = normalize(Embedding("a", [3.0, 4.0]))
        np.testing.assert_allclose(out.vector, [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        out = normalize(Embedding("a", [1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.vector, [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="too small"):
            normalize(Embedding("z", [0.0, 0.0]))

    def test_preserves_id_and_meta(self):
        out = normalize(Embedding("a", [2.0, 0.0], meta={"k": "v"}))
        assert out.id == "a"
        assert out.meta == {"k": "v"}

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            e = Embedding("e", rng.standard_normal(int(rng.integers(1, 20))) * rng.uniform(0.1, 10))
            once = normalize(e)
            twice = normalize(once)
            assert abs(once.norm() - 1.0) <= 1e-12
            np.testing.assert_allclose(twice.vector, once.vector, atol=1e-12)


class TestEmbeddingSet:
    def test_mixed_dimensions_rejected(self):
        items = [Embedding("a", [1, 0, 0]), Embedding("b", [0, 1, 0]), Embedding("c", [1, 0, 0, 0])]
        with pytest.raises(ValidationError, match="'c'"):
            EmbeddingSet(items)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            EmbeddingSet([Embedding("a", [1, 0]), Embedding("a", [0, 1])])

    def test_empty_set_has_no_dim(self):
        s = EmbeddingSet([])
        assert len(s) == 0
        assert s.dim is None
        assert s.matrix().shape == (0, 0)

    def test_get_unknown_id(self):
        s = EmbeddingSet([Embedding("a", [1, 0])])
        with pytest.raises(ValidationError, match="'nope'"):
            s.get("nope")

    def test_get_finds_every_id(self):
        s = EmbeddingSet([Embedding(f"e{i}", [float(i), 1.0]) for i in range(50)])
        assert all(s.get(f"e{i}") is s[i] for i in range(50))

    def test_matrix_order(self):
        s = EmbeddingSet([Embedding("a", [1, 0]), Embedding("b", [0, 1])])
        np.testing.assert_array_equal(s.matrix(), [[1, 0], [0, 1]])


class TestJsonLines:
    def test_load_two_records(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "a", "vector": [1.0, 0.0, 0.0]}\n'
            '{"id": "b", "vector": [0.0, 1.0, 0.0], "meta": {"cluster": "1"}}\n'
        )
        s = load_embeddings(path)
        assert len(s) == 2
        assert s.dim == 3
        assert s[1].meta == {"cluster": "1"}

    def test_dimension_mismatch_names_offender(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "a", "vector": [1, 0, 0]}\n'
            '{"id": "b", "vector": [0, 1, 0]}\n'
            '{"id": "odd", "vector": [0, 1, 0, 0]}\n'
        )
        with pytest.raises(ValidationError, match="'odd'"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("")
        s = load_embeddings(path)
        assert len(s) == 0
        assert s.dim is None

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1]}\n{"id": "a", "vector": [2]}\n')
        with pytest.raises(ValidationError, match="duplicate"):
            load_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1e999]}\n')
        with pytest.raises(ValidationError, match="'a'"):
            load_embeddings(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValidationError, match="vector"):
            load_embeddings(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        original = EmbeddingSet(
            [
                Embedding(f"e{i}", rng.standard_normal(7) * rng.uniform(0.01, 100), meta={"i": str(i)})
                for i in range(20)
            ]
        )
        path = tmp_path / "emb.jsonl"
        save_embeddings(original, path)
        reloaded = load_embeddings(path)
        second = tmp_path / "again.jsonl"
        save_embeddings(reloaded, second)
        assert path.read_text() == second.read_text()
        assert reloaded.ids() == original.ids()
        for a, b in zip(original, reloaded):
            np.testing.assert_array_equal(a.vector, b.vector)
            assert a.meta == b.meta

    def test_written_lines_are_json(self, tmp_path):
        s = EmbeddingSet([Embedding("a", [0.1, 0.2])])
        path = tmp_path / "emb.jsonl"
        save_embeddings(s, path)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["id"] == "a"
        assert "meta" not in record

    def test_non_string_id_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1]}\n{"id": 7, "vector": [2]}\n')
        with pytest.raises(ValidationError, match="line 2: 'id' must be a string"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "vector",
        ['"ab"', '[1, "a"]', '{"x": 1}', "[[1, 2], [3]]", "[1" + "0" * 400 + "]"],
        ids=["string", "string-entry", "object", "ragged", "int-overflow"],
    )
    def test_non_numeric_vector_rejected(self, tmp_path, vector):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": [1]}\n{"id": "b", "vector": %s}\n' % vector)
        with pytest.raises(ValidationError, match="'b': vector must be an array of numbers"):
            load_embeddings(path)

    def test_true_and_false_outside_the_vector_load(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "true", "vector": [0.6, 0.8], "meta": {"false": "true"}}\n')
        assert load_embeddings(path)[0].vector.tolist() == [0.6, 0.8]
        path.write_text('{"id": "b", "vector": 5, "meta": {"flag": "true"}}\n')
        with pytest.raises(ValidationError, match="'b': vector must be one-dimensional"):
            load_embeddings(path)
