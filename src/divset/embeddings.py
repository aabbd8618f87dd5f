"""Embedding vectors and labeled sets, with JSON Lines persistence.

An embedding is an opaque unit-normalizable vector with a string id; this
module never computes embeddings, it only ingests, validates, normalizes
and persists them. Vectors are stored at full round-trip precision so that
downstream log-determinant values are reproducible across save/load cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


@dataclass(eq=False)
class EmbeddingSet:
    """Ordered collection of embeddings sharing one dimension, unique ids.

    Treated as immutable once constructed; the stacked vector matrix is
    cached on first use.
    """

    items: list[Embedding] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._position: dict[str, int] = {}
        dim: int | None = None
        for pos, item in enumerate(self.items):
            if dim is None:
                dim = item.dim
            elif item.dim != dim:
                raise ValidationError(
                    f"embedding {item.id!r}: dimension {item.dim} does not match set dimension {dim}"
                )
            if item.id in self._position:
                raise ValidationError(f"duplicate embedding id {item.id!r}")
            self._position[item.id] = pos
        self._matrix: np.ndarray | None = None

    @property
    def dim(self) -> int | None:
        """Common dimension, or None while the set is empty."""
        return self.items[0].dim if self.items else None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i: int) -> Embedding:
        return self.items[i]

    def ids(self) -> list[str]:
        return [item.id for item in self.items]

    def get(self, id_: str) -> Embedding:
        if id_ not in self._position:
            raise ValidationError(f"unknown embedding id {id_!r}")
        return self.items[self._position[id_]]

    def matrix(self) -> np.ndarray:
        """Stack vectors into an (n, d) array; empty set gives shape (0, 0).

        The returned array is shared across calls and must not be written to.
        """
        if self._matrix is None:
            if self.items:
                self._matrix = np.stack([item.vector for item in self.items])
            else:
                self._matrix = np.zeros((0, 0))
        return self._matrix


def load_embeddings(path: str | Path) -> EmbeddingSet:
    """Read a JSON Lines embedding file.

    One object per line with a string "id", a flat "vector" of finite
    numbers and an optional string map "meta". Order is preserved; the
    dimension is inferred from the first record. Malformed records, mixed
    dimensions and duplicate ids are rejected naming the line or id.
    """
    items: list[Embedding] = []
    with open(path, encoding="utf-8") as fh:
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
            items.append(Embedding(record["id"], vector, meta))
    return EmbeddingSet(items)


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
