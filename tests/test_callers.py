"""Every top-level function and class of the package has a caller outside
the tests.

Code whose only callers are its own unit tests is deleted, so this reads
the sources of `src/qocnn` and `perfbench` (without importing them) and
collects every name they use: Name and Attribute nodes and import aliases,
plus the `[project.scripts]` targets of pyproject.toml.  It matches names,
not bindings: a use of a name counts for every definition of that name,
say a local variable or a method for a top-level function.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qocnn"


def _trees(*dirs: Path) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for d in dirs
        for path in sorted(d.glob("*.py"))
    }


def used_names() -> set[str]:
    names = set()
    for tree in _trees(PACKAGE, ROOT / "perfbench").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(n for n in (node.name, node.asname) if n)
    return names | script_targets()


def script_targets() -> set[str]:
    """The functions `[project.scripts]` in pyproject.toml names."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'^\S+\s*=\s*"[\w.]+:(\w+)"', scripts, re.M))


def definitions() -> dict[str, str]:
    """Each top-level def and class of the package, mapped to its file."""
    return {
        node.name: path.name
        for path, tree in _trees(PACKAGE).items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def test_every_definition_has_a_caller_outside_the_tests():
    defs = definitions()
    assert len(defs) > 100  # the walk found the package
    used = used_names()
    unused = sorted(f"{file}: {name}" for name, file in defs.items() if name not in used)
    assert unused == []


def test_the_project_script_is_read():
    assert script_targets() == {"entrypoint"}


def _is_kind(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "kind"


def _is_string_literal(node: ast.expr) -> bool:
    """A string constant, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_string_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def kind_comparisons(trees: dict[Path, ast.Module]) -> list[str]:
    """file:line of each comparison of a `.kind` with a string literal."""
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_kind, operands)) and any(map(_is_string_literal, operands)):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_layers_compares_kind_names():
    """Each kind's behaviour lives in `layers.KINDS`, so no other module of
    the package branches on a kind's name."""
    trees = {p: t for p, t in _trees(PACKAGE).items() if p.name != "layers.py"}
    assert len(trees) > 5
    assert kind_comparisons(trees) == []


def test_kind_comparisons_are_found():
    tree = ast.parse(
        'a = spec.kind == "complex_linear"\n'
        'b = s.kind in ("quantum_conv", "split_max_pool")\n'
        'c = spec.kind == other.kind\n'
        'd = x.name == "quantum_conv"\n'
    )
    assert kind_comparisons({Path("m.py"): tree}) == ["m.py:1", "m.py:2"]


def _is_argmax(node: ast.expr, bound: set[str]) -> bool:
    """An `argmax` call, or a name assigned one."""
    if isinstance(node, ast.Call):
        f = node.func
        return getattr(f, "attr", getattr(f, "id", None)) == "argmax"
    return isinstance(node, ast.Name) and node.id in bound


def _names_labels(node: ast.expr) -> bool:
    return any(
        "label" in (n.id if isinstance(n, ast.Name) else n.attr)
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def argmax_label_comparisons(trees: dict[Path, ast.Module]) -> list[str]:
    """file:line of each comparison of an argmax result with labels."""
    found = []
    for path, tree in trees.items():
        bound = {
            t.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Assign) and _is_argmax(n.value, set())
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                argmax = [o for o in operands if _is_argmax(o, bound)]
                if argmax and any(_names_labels(o) for o in operands if o not in argmax):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_metrics_compares_argmax_with_labels():
    """Accuracy has one path, `metrics.accuracy`, which train's test pass
    and `qocnn evaluate` both call; no other module counts hits itself."""
    trees = {p: t for p, t in _trees(PACKAGE).items() if p.name != "metrics.py"}
    assert len(trees) > 5
    assert argmax_label_comparisons(trees) == []


def test_argmax_label_comparisons_are_found():
    tree = ast.parse(
        "a = float((log_probs.argmax(axis=1) == ds.labels).mean())\n"
        "preds = np.argmax(scores, axis=1)\n"
        "b = labels != preds\n"
        "c = preds == other\n"
        "d = x.argmin(axis=1) == labels\n"
        "e = metrics.accuracy(p.argmax(axis=1), batch.labels)\n"
    )
    assert sorted(argmax_label_comparisons({Path("m.py"): tree})) == ["m.py:1", "m.py:3"]
