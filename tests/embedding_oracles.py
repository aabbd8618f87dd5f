"""The per-row embedding reader and writer: each line's record checked and its
vector validated on its own, the way an Embedding was, before it joins the
rows read so far. load_embeddings must give this reader's matrix, ids and
metas, or raise its message; save_embeddings must write this writer's bytes."""

import json

import numpy as np

from divset.errors import ValidationError


def checked_vector(id_, vector) -> np.ndarray:
    try:
        vec = np.asarray(vector, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"embedding {id_!r}: vector must be an array of numbers") from exc
    if vec.ndim != 1 or vec.size < 1:
        raise ValidationError(f"embedding {id_!r}: vector must be one-dimensional with at least one entry")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"embedding {id_!r}: vector contains non-finite entries")
    return vec


def load(path) -> tuple[np.ndarray, list[str], list]:
    """(matrix, ids, metas) of an embedding file; the first fault in file order raises."""
    ids, metas, vectors = [], [], []
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
            id_ = record["id"]
            if not isinstance(id_, str):
                raise ValidationError(f"{path}: line {lineno}: 'id' must be a string")
            if any(0xD800 <= ord(c) <= 0xDFFF for c in id_):
                raise ValidationError(f"{path}: line {lineno}: 'id' is not valid UTF-8 text")
            vector = record["vector"]
            if isinstance(vector, list) and any(isinstance(x, bool) for x in vector):
                raise ValidationError(f"{path}: line {lineno}: 'vector' must hold numbers, not booleans")
            vec = checked_vector(id_, vector)
            if vectors and vec.size != vectors[0].size:
                raise ValidationError(
                    f"embedding {id_!r}: dimension {vec.size} does not match set dimension {vectors[0].size}"
                )
            if id_ in ids:
                raise ValidationError(f"duplicate embedding id {id_!r}")
            ids.append(id_)
            metas.append(meta)
            vectors.append(vec)
    return (np.array(vectors) if vectors else np.zeros((0, 0))), ids, metas


def saved_text(set_) -> str:
    """The JSON Lines text of a set, one record per item view."""
    lines = []
    for item in set_:
        record: dict = {"id": item.id, "vector": [float(x) for x in item.vector]}
        if item.meta is not None:
            record["meta"] = item.meta
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)
