"""Every function, class and method in src/cdrlab is reached from the package's own code,
and every module-level name it assigns and every class field it declares is read by that code.

A scan of the source, not an import: reachability starts at the module-level
statements of every module (the subcommand table and `main` among them) and
follows names.  A definition is reached once its name is used, as a plain
name or as an attribute, in code that is itself reached; a reached class
brings its body, its dunder methods and its overrides of a base class from
outside the package (which that base calls) along.  Imports reach nothing, so
a name that only a test uses shows up here.
"""

import ast
import builtins
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cdrlab"
# The acceptance tests build and inspect graphs and anomaly reports through
# these; no subcommand needs them.
TEST_ONLY = {"cdrlab.socialgraph.SocialGraph.from_edges", "cdrlab.socialgraph.SocialGraph.sorted_nodes",
             "cdrlab.socialgraph.adjacent_link_count", "cdrlab.anomaly.AnomalyReport.flagged",
             # the per-subscriber oracles group rows through these, and perfbench/tracer.py
             # INDEXES wraps both by name to time the index builds
             "cdrlab.records.Dataset.cdrs_by_caller", "cdrlab.records.Dataset.cdrs_by_callee"}
# Class fields that no package code reads, each with the reader that needs it.
UNREAD_FIELDS = {
    "cdrlab.adoption.KappaResult.excluded_replicates": "perfbench/tracer.py _counts reports it per kappa call",
    "cdrlab.adoption.KappaResult.random_std": "the scale of ci95, which test_kappa_ci_formula_is_frozen checks",
}


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _overrides(base: ast.expr, name: str) -> bool:
    """Whether base, a builtin or a module.Class from outside the package, has a method name."""
    owner = getattr(builtins, getattr(base, "id", ""), None)
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        try:
            owner = getattr(importlib.import_module(base.value.id), base.attr, None)
        except ImportError:
            owner = None
    return owner is not None and hasattr(owner, name)


def _scan() -> tuple[dict[str, str], set[str]]:
    """(qualified name -> key, the reached keys).

    A function or class is keyed by its name and reached by a plain name or
    an attribute; a method is keyed by "." and its name and reached only by
    an attribute.
    """
    keys: dict[str, str] = {}
    bodies: dict[str, list[ast.AST]] = {}  # what runs once a key is reached
    todo: list[ast.AST] = []  # what runs at import
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not _is_def(node):
                todo.append(node)
                continue
            keys[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                own = [n for n in node.body if not _is_def(n)] + node.bases + node.decorator_list
                for item in filter(_is_def, node.body):
                    dunder = item.name.startswith("__") and item.name.endswith("__")
                    if dunder or any(_overrides(b, item.name) for b in node.bases):
                        own.append(item)
                    else:
                        keys[f"{module}.{node.name}.{item.name}"] = "." + item.name
                        bodies.setdefault("." + item.name, []).append(item)
                bodies.setdefault(node.name, []).extend(own)
            else:
                bodies.setdefault(node.name, []).append(node)
    reached: set[str] = set()
    while todo:
        for sub in ast.walk(todo.pop()):
            if isinstance(sub, ast.Name):
                used = [sub.id]
            elif isinstance(sub, ast.Attribute):
                used = [sub.attr, "." + sub.attr]
            else:
                continue
            for key in used:
                if key in bodies and key not in reached:
                    reached.add(key)
                    todo.extend(bodies[key])
    return keys, reached


def test_every_definition_is_reached_from_the_package():
    keys, reached = _scan()
    unreached = sorted(q for q, key in keys.items() if key not in reached and q not in TEST_ONLY)
    assert unreached == []


def test_every_module_level_name_is_read_by_the_package():
    assigned: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for sub in (n for t in targets if t is not None for n in ast.walk(t)):
                if isinstance(sub, ast.Name):
                    assigned[f"{module}.{sub.id}"] = sub.id
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    assert "cdrlab.mlkit.models.FAMILIES" in assigned
    assert sorted(q for q, name in assigned.items() if name not in read) == []


def test_every_class_field_is_read_by_the_package():
    """A field is an annotated name in a class body; it is read when its name is loaded as an
    attribute, or appears as a string constant (getattr, vars), anywhere in src/cdrlab.

    The scan matches by name, not by owner, so a field named like another object's attribute
    escapes it: a PkCurve.min_support would pass on the strength of args.min_support.
    """
    declared: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).with_suffix("").as_posix().replace("/", ".")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        declared[f"{module}.{node.name}.{item.target.id}"] = item.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert "cdrlab.mlkit.models.MlpModel.W1" in declared
    assert sorted(q for q, name in declared.items() if name not in read) == sorted(UNREAD_FIELDS)


def test_the_scan_sees_the_entry_points():
    keys, reached = _scan()
    assert {"main", "_cmd_train", "train_logistic", ".predict_proba", "Dataset"} <= reached
    assert TEST_ONLY <= set(keys)
