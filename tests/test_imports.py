"""Every import in src/divset is used: each name an import binds is read in its
module, is exported through ``divset.__all__`` (in ``__init__.py``), or sits on
a line marked ``# noqa: F401``; test_trace_targets.py checks those lines. And
every export is read by the program or wrapped by the traced benchmark."""

import ast
from pathlib import Path

import divset
from test_trace_targets import load_spans

SRC = Path(__file__).resolve().parent.parent / "src" / "divset"


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(divset.__all__) if path.name == "__init__.py" else set()
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in used or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_every_import_is_used():
    assert [entry for path in sorted(SRC.glob("*.py")) for entry in unused_imports(path)] == []


def test_every_export_is_used_by_the_program_or_traced():
    # an export the program never reads is a view kept only for tests; save_embeddings
    # is the embedding format's writer, the loader's counterpart
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py") if path.name != "__init__.py"]
    names = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)]
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    traced = {attr for owner, attr, *_ in load_spans().TARGETS if owner.startswith("divset")}
    assert [name for name in divset.__all__ if name not in read | traced | {"save_embeddings"}] == []
