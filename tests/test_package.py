"""Package hygiene: no public code in ``tkgalign`` that only tests call, and a
README that names every option and every test it cites."""
from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

from tkgalign.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tkgalign"
README = ROOT / "README.md"
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


def parsers(parser: argparse.ArgumentParser):
    """The parser and every subcommand parser under it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parsers(sub)


def refusal_rows() -> list[list[str]]:
    """The cells of each row of the README's refusal table."""
    section = README.read_text().split("### Refusals", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def test_readme_names_every_long_option():
    readme = README.read_text()
    options = {opt for p in parsers(build_parser()) for a in p._actions
               for opt in a.option_strings if opt.startswith("--")}
    missing = sorted(o for o in options if not re.search(re.escape(o) + r"(?![\w-])", readme))
    assert not missing, f"README does not mention {missing}"


def test_refusal_table_cites_tests_that_exist():
    rows = refusal_rows()
    assert {row[1] for row in rows} == {"1", "2"}
    modules = {}
    for row in rows:
        node = row[-1].strip("`")
        path, *names = node.split("::")
        assert re.fullmatch(r"tests/test_\w+\.py", path) and names, node
        if path not in modules:
            modules[path] = ast.parse((ROOT / path).read_text()).body
        body = modules[path]
        for name in names:
            match = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name]
            assert match, f"{node}: no {name} in {path}"
            body = match[0].body


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    snippet = README.read_text().split("## Library use", 1)[1].split("```python\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    exec(snippet.split("```", 1)[0], {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # this forged pair has no lowly time-sensitive test pair, so that report is left out
    assert [row[0] for row in rows] == ["all", "highly"]
    assert all(0 <= float(value) <= 1 for row in rows for value in row[1:])
