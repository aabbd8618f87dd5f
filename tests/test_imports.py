"""Every import in src/divset is used: each name an import binds is read in its
module, is exported through ``divset.__all__`` (in ``__init__.py``), or sits on
a line marked ``# noqa: F401``; test_trace_targets.py checks those lines."""

import ast
from pathlib import Path

import divset

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
