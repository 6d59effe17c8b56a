"""Package hygiene: no public code in ``tkgalign`` that only tests call."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tkgalign"
# the program's own callers: the package, the benchmark harness and the
# experiment runners; tests do not count
CALLER_DIRS = ("src", "perfbench", "scripts")

# verification references: the program never calls them, the tests check
# the program against them
REFERENCES = {
    "autodiff.materialize_householder": "the explicit k x k reflection criteria 1-2 compare with",
    "optim.gradient_check": "the finite-difference check of criterion 3",
    "forge.planted_isomorphic": "the twin-isomorphism oracle for planted pairs",
}


def public_definitions() -> list[str]:
    """``module.name`` and ``module.Class.method`` for every public definition."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.extend(f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                           if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))
    return out


def referenced_names() -> set[str]:
    """Every name the callers read, call, import or take as an attribute."""
    names = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = [d for d in public_definitions()
              if d.rsplit(".", 1)[-1] not in used and d not in REFERENCES]
    assert not unused, f"only tests call {unused}: delete them or move them into the tests"


def test_references_are_defined_and_have_no_caller():
    """A reference that is gone, or that the program now calls, leaves the list."""
    used = referenced_names()
    definitions = set(public_definitions())
    for name in REFERENCES:
        assert name in definitions, name
        assert name.rsplit(".", 1)[-1] not in used, name
