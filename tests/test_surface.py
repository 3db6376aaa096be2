"""No exported name that only tests reach.

A name in a module's `__all__` must be reached from a root: the benchmark
(`perfbench/`, its tests aside), a script, the CI workflow, or module-level
code of the library (the runner table, `python -m distillery`).  Reach is
followed through the library: a top-level function or class is reached when
reached code uses its name, and only then do the names in its body count.
The few names that only the acceptance criteria or the gradient checks call
are kept by name, with the check that calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "cross_entropy": "criterion 8 (the Gibbs inequality check)",
    "one_hot": "criteria 8 and 9 (hard labels as probability vectors)",
    "clean_subset": "criterion 8 (its definitional check)",
    "replay_labels": "criterion 8 (the label replay check)",
    "gradient": "criteria 8 and 9, the finite-difference checks and the step oracle",
}


def _uses(node) -> set[str]:
    """Names that code under `node` reads, as a name or as an attribute;
    a string, such as a docstring, is not a use."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _library():
    """(exported names, uses of each top-level definition, uses of module-level code)."""
    exported, bodies, module_level = set(), {}, set()
    for path in sorted((ROOT / "src" / "distillery").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_uses(stmt))
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                exported.update(ast.literal_eval(stmt.value))
            else:
                module_level |= _uses(stmt)
    return exported, bodies, module_level


def _roots() -> set[str]:
    names = set()
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        names |= _uses(ast.parse(path.read_text(), str(path)))
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    return names | set(re.findall(r"[A-Za-z_]\w*", workflow))


def _reached(bodies, seeds) -> set[str]:
    reached, todo = set(), list(seeds)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += bodies.get(name, ())
    return reached


def test_every_exported_name_is_reached_or_kept_with_its_check():
    exported, bodies, module_level = _library()
    reached = _reached(bodies, _roots() | module_level | KEEP.keys())
    assert sorted(exported - reached) == []


def test_each_kept_name_is_exported_and_reached_only_by_its_check():
    exported, bodies, module_level = _library()
    assert KEEP.keys() <= exported
    reached = _reached(bodies, _roots() | module_level)
    assert sorted(KEEP.keys() & reached) == []
