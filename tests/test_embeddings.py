"""Embedding construction, normalization, and JSON Lines round trips."""

import json
import os
import tracemalloc

import embedding_oracles
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        for i in range(50):
            assert s.get(f"e{i}").id == s[i].id == f"e{i}"
            np.testing.assert_array_equal(s.get(f"e{i}").vector, [float(i), 1.0])

    def test_matrix_order(self):
        s = EmbeddingSet([Embedding("a", [1, 0]), Embedding("b", [0, 1])])
        np.testing.assert_array_equal(s.matrix(), [[1, 0], [0, 1]])

    def test_matrix_is_read_only(self):
        s = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("b", [0.0, 1.0])])
        with pytest.raises(ValueError):
            s.matrix()[0, 0] = 2.0
        np.testing.assert_array_equal(s.matrix(), [[1, 0], [0, 1]])


    def test_take_keeps_order_ids_and_metas(self):
        s = EmbeddingSet([Embedding(f"e{i}", [float(i), 1.0], meta={"i": str(i)}) for i in range(5)])
        taken = s.take([3, 0, 4])
        assert taken.ids() == ["e3", "e0", "e4"]
        assert [item.meta for item in taken] == [{"i": "3"}, {"i": "0"}, {"i": "4"}]
        np.testing.assert_array_equal(taken.matrix(), s.matrix()[[3, 0, 4]])
        assert s.ids() == ["e0", "e1", "e2", "e3", "e4"]

    def test_take_matrix_is_read_only(self):
        taken = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("b", [0.0, 1.0])]).take([1])
        with pytest.raises(ValueError):
            taken.matrix()[0, 0] = 2.0

    def test_empty_take(self):
        taken = EmbeddingSet([Embedding("a", [1.0, 0.0])]).take([])
        assert len(taken) == 0
        assert taken.dim is None
        assert taken.matrix().shape == (0, 0)

    def test_get_after_take(self):
        s = EmbeddingSet([Embedding(f"e{i}", [float(i), 1.0]) for i in range(5)])
        taken = s.take([4, 1])
        np.testing.assert_array_equal(taken.get("e1").vector, [1.0, 1.0])
        assert taken[0].id == "e4"
        with pytest.raises(ValidationError, match="'e0'"):
            taken.get("e0")

    def test_take_of_every_row_in_order_is_the_set_itself(self):
        s = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("b", [0.0, 1.0])])
        assert s.take(range(2)) is s
        assert s.take([1, 0]) is not s

    def test_take_rejects_a_repeated_row(self):
        s = EmbeddingSet([Embedding("a", [1.0, 0.0]), Embedding("b", [0.0, 1.0])])
        with pytest.raises(ValidationError, match="duplicate embedding id 'b'"):
            s.take([1, 0, 1])


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

    @pytest.mark.parametrize("id_", ["\ud800", "a\udfff", "\udc00\ud800"])
    def test_lone_surrogate_id_rejected_naming_line(self, tmp_path, id_):
        # a valid JSON escape that no UTF-8 output can hold; a surrogate pair is one character
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "\\ud83d\\ude00", "vector": [1.0, 0.0]}\n' + json.dumps({"id": id_, "vector": [0.0, 1.0]}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="line 2: 'id' is not valid UTF-8 text"):
            load_embeddings(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('\n{"id": "a", "vector": [1.0, 0.0]}\n   \n{"id": "b", "vector": [0.0, 1.0]}\n\n')
        s = load_embeddings(path)
        assert s.ids() == ["a", "b"]
        np.testing.assert_array_equal(s.matrix(), [[1.0, 0.0], [0.0, 1.0]])

    def test_first_fault_in_file_order(self, tmp_path):
        # a wrong dimension at line 3 is reported before a NaN at line 5
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "a", "vector": [1, 0]}\n'
            '{"id": "b", "vector": [0, 1]}\n'
            '{"id": "wide", "vector": [0, 1, 0]}\n'
            '{"id": "c", "vector": [1, 1]}\n'
            '{"id": "nan", "vector": [NaN, 1]}\n'
        )
        with pytest.raises(ValidationError, match="'wide': dimension 3 does not match set dimension 2"):
            load_embeddings(path)

    def test_load_from_a_pipe(self, tmp_path):
        # a pipe cannot seek back for the counting pass, so it is read into memory once
        path = tmp_path / "emb.jsonl"
        save_embeddings(EmbeddingSet([Embedding(f"e{i}", [float(i), 1.0], meta={"i": str(i)}) for i in range(4)]), path)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"\n" + path.read_bytes())
            os.close(write_end)
            piped = load_embeddings(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        loaded = load_embeddings(path)
        assert piped.ids() == loaded.ids()
        assert [item.meta for item in piped] == [item.meta for item in loaded]
        np.testing.assert_array_equal(piped.matrix(), loaded.matrix())

    def test_load_peak_memory_near_the_matrix(self, tmp_path):
        # the vectors go straight into one preallocated matrix, with no per-item objects beside it
        rng = np.random.default_rng(5)
        path = tmp_path / "emb.jsonl"
        with open(path, "w") as fh:
            for i, row in enumerate(rng.standard_normal((5000, 64))):
                fh.write(json.dumps({"id": f"e{i:05d}", "vector": row.tolist()}) + "\n")
        tracemalloc.start()
        try:
            matrix = load_embeddings(path).matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (5000, 64)
        assert peak <= 1.5 * matrix.nbytes

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

    @pytest.mark.parametrize(
        "first, nested",
        [("[0.5]", "[[0.5]]"), ("[1, 2]", "[[1, 2]]"), ("[[0.5]]", "[0.5]")],
        ids=["one-wide", "two-wide", "first-row"],
    )
    def test_nested_vector_rejected(self, tmp_path, first, nested):
        # a numpy row write may broadcast a nested list into a row it fits; the loader never writes one
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "vector": %s}\n{"id": "b", "vector": %s}\n' % (first, nested))
        bad = "b" if nested.startswith("[[") else "a"
        with pytest.raises(ValidationError, match=f"'{bad}': vector must be one-dimensional"):
            load_embeddings(path)

    def test_non_finite_row_reported_before_a_later_duplicate(self, tmp_path):
        # finiteness is tested over the matrix, yet a NaN at line 2 still comes before a duplicate at line 4
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "a", "vector": [1, 0]}\n'
            '{"id": "nan", "vector": [NaN, 1]}\n'
            '{"id": "b", "vector": [0, 1]}\n'
            '{"id": "a", "vector": [1, 1]}\n'
        )
        with pytest.raises(ValidationError, match="^embedding 'nan': vector contains non-finite entries$"):
            load_embeddings(path)

    def test_save_writes_the_bytes_of_the_per_item_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        s = EmbeddingSet(
            [Embedding(f"é{i}", rng.standard_normal(5), meta={"i": str(i)} if i % 2 else None) for i in range(9)]
        )
        path = tmp_path / "emb.jsonl"
        save_embeddings(s, path)
        assert path.read_text(encoding="utf-8") == embedding_oracles.saved_text(s)


# Entries of a vector: numbers, and the values the loader must reject or read like the per-row reader.
ODD_ENTRIES = ["NaN", "Infinity", "-Infinity", "1e999", "true", "false", "null", '"1"', '"a"', "[0.5]", "1" + "0" * 400]
ODD_VECTORS = ["5", "0.5", '"ab"', '"12"', '{"x": 1}', "[]", "null"]
FAULTY_LINES = ["{", "[1, 2]", '{"id": "a"}', '{"vector": [1]}']


@st.composite
def embedding_files(draw):
    """JSON Lines text of a few records, about one line in three blank, broken or perturbed."""
    width = draw(st.integers(1, 3))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-3, 3).map(str)
    kinds = ["clean"] * 16 + ["entry", "width", "vector", "nested", "blank", "line", "field", "meta"]
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        entries = draw(st.lists(number, min_size=width, max_size=width))
        if kind == "entry":
            entries[draw(st.integers(0, width - 1))] = draw(st.sampled_from(ODD_ENTRIES))
        if kind == "width":
            entries = entries[:-1] if draw(st.booleans()) else [*entries, "0.5"]
        vector = "[" + ", ".join(entries) + "]"
        if kind == "vector":
            vector = draw(st.sampled_from(ODD_VECTORS))
        if kind == "nested":
            vector = "[" + vector + "]"
        id_ = json.dumps(draw(st.sampled_from(["a", "b", "c", "d", "e", "f", "é", 'q"t', "\ud800"])))
        if kind == "field":
            id_ = draw(st.sampled_from(["7", "null", "true"]))
        meta = draw(st.sampled_from(["", ', "meta": {"k": "v"}', ', "meta": null']))
        if kind == "meta":
            meta = ', "meta": {"k": 1}'
        line = '{"id": %s, "vector": %s%s}' % (id_, vector, meta)
        if kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        if kind == "line":
            line = draw(st.sampled_from(FAULTY_LINES))
        lines.append(line + "\n")
    return "".join(lines)


def _outcome(load, path):
    """What a load returns, or the message of its ValidationError."""
    try:
        return load(path)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=embedding_files())
def test_loader_matches_the_per_row_reader(tmp_path, text):
    path = tmp_path / "emb.jsonl"
    path.write_text(text, encoding="utf-8")

    got, expected = _outcome(load_embeddings, path), _outcome(embedding_oracles.load, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        matrix, ids, metas = expected
        assert got.matrix().shape == matrix.shape
        assert got.matrix().tobytes() == matrix.tobytes()
        assert got.ids() == ids
        assert [item.meta for item in got] == metas
