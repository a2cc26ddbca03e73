"""lfab's public surface is what its callers use.

The callers are the lfab commands and the benchmark in perfbench/. Every
public module-level function or class in src/lfab/ must be referenced from
src/lfab/ or perfbench/ outside its own definition: by name, as an
attribute, in an import, or as an identifier string (the benchmark's tracer
hooks functions by name). A helper only the tests call belongs in the tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lfab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# public names no caller uses, each kept on purpose
ALLOWED_UNREFERENCED = {
    "ctc_rnnt_divergence": "the CTC vs RNNT decode-cost measurement of acceptance criterion 05",
}


def _references(node, exclude=None):
    """Identifiers node refers to, leaving out the name it defines."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.alias):
            refs.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            refs.add(sub.value)
    refs.discard(exclude)
    return refs


def _public_definitions():
    defs = {}
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defs[stmt.name] = path.name
    return defs


def _referenced():
    refs = set()
    for path in CALLERS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            refs |= _references(stmt, exclude=name)
    return refs


def test_every_public_definition_has_a_caller():
    refs = _referenced()
    unused = sorted(f"{module}: {name}" for name, module in _public_definitions().items()
                    if name not in refs and name not in ALLOWED_UNREFERENCED)
    assert unused == []


def test_allowlist_names_unreferenced_public_definitions():
    defs, refs = _public_definitions(), _referenced()
    assert sorted(n for n in ALLOWED_UNREFERENCED if n not in defs) == []
    assert sorted(n for n in ALLOWED_UNREFERENCED if n in refs) == []
