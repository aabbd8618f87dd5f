"""Embedding vectors and labeled sets, with JSON Lines persistence.

An embedding is an opaque unit-normalizable vector with a string id; this
module never computes embeddings, it only ingests, validates, normalizes
and persists them. Vectors are stored at full round-trip precision so that
downstream log-determinant values are reproducible across save/load cycles.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

# Norms below this are rejected rather than silently normalized.
ZERO_NORM_TOL = 1e-12


@dataclass(eq=False)
class Embedding:
    id: str
    vector: np.ndarray
    meta: dict[str, str] | None = None

    def __post_init__(self) -> None:
        try:
            vec = np.asarray(self.vector, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"embedding {self.id!r}: vector must be an array of numbers") from exc
        if vec.ndim != 1 or vec.size < 1:
            raise ValidationError(
                f"embedding {self.id!r}: vector must be one-dimensional with at least one entry"
            )
        if not np.all(np.isfinite(vec)):
            raise ValidationError(f"embedding {self.id!r}: vector contains non-finite entries")
        self.vector = vec

    @property
    def dim(self) -> int:
        return self.vector.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


def normalize(e: Embedding) -> Embedding:
    """Scale to unit Euclidean norm, preserving id and meta.

    Idempotent: normalizing an already-unit vector returns it unchanged up
    to floating point. Zero and near-zero vectors are rejected.
    """
    n = float(np.linalg.norm(e.vector))
    if n < ZERO_NORM_TOL:
        raise ValidationError(f"embedding {e.id!r}: norm {n:.3e} is too small to normalize")
    return Embedding(e.id, e.vector / n, e.meta)


class EmbeddingSet:
    """Ordered collection of embeddings sharing one dimension, unique ids.

    Holds the ids, the metas and one read-only (n, d) matrix; indexing,
    iteration and get return Embedding views of a row. Immutable once built.
    """

    def __new__(cls, items: Iterable[Embedding] = ()) -> EmbeddingSet:
        items = list(items)
        return cls._from_rows(len(items), ((item.id, item.vector, item.meta) for item in items))

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[tuple]) -> EmbeddingSet:
        """A set of n (id, vector, meta) rows in one matrix. Every set is built here,
        the one place that rejects a mixed dimension or a repeated id."""
        self = super().__new__(cls)
        self._metas: list[dict[str, str] | None] = []
        self._position: dict[str, int] = {}
        matrix = np.zeros((0, 0))
        for row, (id_, vector, meta) in enumerate(rows):
            if row == 0:
                matrix = np.empty((n, vector.size))
            elif vector.size != matrix.shape[1]:
                raise ValidationError(
                    f"embedding {id_!r}: dimension {vector.size} does not match set dimension {matrix.shape[1]}"
                )
            if id_ in self._position:
                raise ValidationError(f"duplicate embedding id {id_!r}")
            self._position[id_] = row
            self._metas.append(meta)
            matrix[row] = vector
        matrix.flags.writeable = False
        self._ids = list(self._position)
        self._matrix = matrix
        return self

    @property
    def dim(self) -> int | None:
        """Common dimension, or None while the set is empty."""
        return self._matrix.shape[1] if self._ids else None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Embedding:
        return Embedding(self._ids[i], self._matrix[i], self._metas[i])

    def ids(self) -> list[str]:
        return list(self._ids)

    def index(self, id_: str) -> int:
        if id_ not in self._position:
            raise ValidationError(f"unknown embedding id {id_!r}")
        return self._position[id_]

    def get(self, id_: str) -> Embedding:
        return self[self.index(id_)]

    def take(self, indices: Iterable[int]) -> "EmbeddingSet":
        """The rows at these indices, in this order, as a set: itself when they are all its rows in order."""
        rows = list(indices)
        if rows == list(range(len(self))):
            return self
        return EmbeddingSet._from_rows(len(rows), ((self._ids[i], self._matrix[i], self._metas[i]) for i in rows))

    def matrix(self) -> np.ndarray:
        """The set's own read-only (n, d) storage; an empty set gives shape (0, 0)."""
        return self._matrix


def _read_rows(path: str | Path, fh) -> Iterator[tuple]:
    """The checked (id, vector, meta) of each non-blank line of an open embedding file."""
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or "id" not in record or "vector" not in record:
            raise ValidationError(f"{path}: line {lineno} lacks required 'id'/'vector' fields")
        meta = record.get("meta")
        if meta is not None and (
            not isinstance(meta, dict)
            or any(not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items())
        ):
            raise ValidationError(f"{path}: line {lineno}: 'meta' must map strings to strings")
        if not isinstance(record["id"], str):
            raise ValidationError(f"{path}: line {lineno}: 'id' must be a string")
        vector = record["vector"]
        # numpy would read true/false as 1/0. Only a line that spells one can hold one,
        # and a line with no "u" and no "a" (a memchr each) spells neither.
        spelled = ("u" in line or "a" in line) and ("true" in line or "false" in line)
        if spelled and isinstance(vector, list) and any(isinstance(x, bool) for x in vector):
            raise ValidationError(f"{path}: line {lineno}: 'vector' must hold numbers, not booleans")
        item = Embedding(record["id"], vector, meta)
        yield item.id, item.vector, item.meta


def load_embeddings(path: str | Path) -> EmbeddingSet:
    """Read a JSON Lines embedding file.

    One object per line with a string "id", a flat "vector" of finite
    numbers and an optional string map "meta". Order is preserved; the
    dimension is inferred from the first record. The first malformed record,
    mixed dimension or duplicate id in file order is rejected naming the line
    or id. Each checked vector goes straight into a matrix sized by a counting pass.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh if fh.seekable() else io.StringIO(fh.read())  # a pipe is read once, into memory
        n = sum(1 for line in text if line.strip())
        text.seek(0)
        return EmbeddingSet._from_rows(n, _read_rows(path, text))


def save_embeddings(set_: EmbeddingSet, path: str | Path) -> None:
    """Write a JSON Lines embedding file; exact round trip with load_embeddings.

    Floats serialize via repr (shortest decimal that parses back to the
    same binary value), so load(save(s)) is element-wise identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for item in set_:
            record: dict = {"id": item.id, "vector": [float(x) for x in item.vector]}
            if item.meta is not None:
                record["meta"] = item.meta
            fh.write(json.dumps(record) + "\n")
