"""The package ships what its CLI and the benchmark call.

Every public top-level function and class of ``ttbell`` must be referenced,
as a name or an attribute, somewhere in ``src/ttbell`` outside its own
definition, or in ``bench/*.py``.  Code that only the tests call belongs
in the tests' oracles.  Strings (docstrings, the benchmark's name lists)
and imports do not count as references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ttbell").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(nodes) -> set[str]:
    """The names and attribute names used anywhere under ``nodes``."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_public_definition_has_a_caller():
    trees = {path: _parse(path) for path in PACKAGE}
    tops = [top for tree in trees.values() for top in tree.body]
    uses = [_referenced([top]) for top in tops]
    bench_names = _referenced(_parse(path) for path in BENCH)
    # the scan sees the package and the benchmark, so an empty pass means something
    assert {p.name for p in PACKAGE} >= {"cli.py", "lhv.py", "quantum.py", "polytope.py"}
    assert {"run", "polytope_check", "random_factorized_model"} <= bench_names
    orphans = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        and node.name not in bench_names.union(*(u for top, u in zip(tops, uses) if top is not node))
    ]
    assert not orphans, f"no caller in src/ttbell or bench/, so they belong in the tests: {orphans}"
