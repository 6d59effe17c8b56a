"""Package hygiene: no public code in ``tkgalign`` that only tests call, one
function that writes files, two modules that read a clock, and a README that
names every option, every refusal a command can reach and every test it cites."""
from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import pytest

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


# the package's only writer, ``tkg.write_file``
WRITER = ("tkg", "write_file")
NUMPY_SAVES = {"save", "savez", "savez_compressed"}


def _is_write_mode(node: ast.expr | None) -> bool:
    """True unless ``node`` is a constant read-only ``open`` mode; no mode reads."""
    if node is None:
        return False
    return not (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and not set(node.value) & set("wax+"))


def _writes(call: ast.Call, in_memory: set[str]) -> bool:
    """Whether ``call`` writes a file; ``in_memory`` names the enclosing
    function's ``io.BytesIO()`` buffers, which ``np.save*`` may fill."""
    func, mode = call.func, next((k.value for k in call.keywords if k.arg == "mode"), None)
    if isinstance(func, ast.Name):
        return func.id == "open" and _is_write_mode(call.args[1] if len(call.args) > 1 else mode)
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "open":  # Path.open(mode)
        return _is_write_mode(call.args[0] if call.args else mode)
    if func.attr in NUMPY_SAVES and isinstance(func.value, ast.Name) and func.value.id == "np":
        target = call.args[0] if call.args else None
        return not (isinstance(target, ast.Name) and target.id in in_memory)
    return func.attr in {"write_text", "write_bytes", "tofile"}


def file_writes(tree: ast.Module, module: str) -> list[str]:
    """``module.function:line`` of every call outside ``WRITER`` that writes a file."""
    found = []

    def visit(node: ast.AST, where: str, in_memory: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
            in_memory = in_memory | {
                target.id for sub in ast.walk(node) if isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Call) and ast.unparse(sub.value.func) == "io.BytesIO"
                for target in sub.targets if isinstance(target, ast.Name)}
        if isinstance(node, ast.Call) and _writes(node, in_memory) and (module, where) != WRITER:
            found.append(f"{module}.{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_memory)

    visit(tree, "<module>", set())
    return found


def test_write_file_is_the_only_function_that_writes_files():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in file_writes(ast.parse(path.read_text()), path.stem)]
    assert found == [], f"write these through tkg.write_file: {found}"
    writer = ast.parse((PACKAGE / "tkg.py").read_text())
    assert [n.name for n in writer.body if isinstance(n, ast.FunctionDef)].count("write_file") == 1


@pytest.mark.parametrize("source, writes", [
    ("def f(p):\n    open(p, 'w')", True),
    ("def f(p):\n    open(p, mode='ab')", True),
    ("def f(p, m):\n    open(p, m)", True),
    ("def f(p):\n    p.open('r+')", True),
    ("def f(p):\n    p.write_text('x')", True),
    ("def f(p):\n    p.write_bytes(b'x')", True),
    ("def f(p, a):\n    np.savez(p, a=a)", True),
    ("def f(p, a):\n    np.save(p, a)", True),
    ("def f(p, a):\n    np.savez_compressed(p, a=a)", True),
    ("def f(p, a):\n    a.tofile(p)", True),
    ("open('log', 'w')", True),
    ("def f(p):\n    open(p)", False),
    ("def f(p):\n    open(p, 'rb')", False),
    ("def f(p):\n    p.open()", False),
    ("def f(a):\n    buffer = io.BytesIO()\n    np.savez(buffer, a=a)", False),
    ("def write_file(p):\n    p.write_bytes(b'x')", False),
], ids=lambda v: v if isinstance(v, bool) else v.split("\n")[-1].strip())
def test_write_guard_sees_each_kind_of_write(source, writes):
    assert bool(file_writes(ast.parse(source), "tkg")) is writes


# the modules that may read a clock: ``cli`` stamps and times the run manifest,
# ``train`` times each epoch for it; every other artifact holds no wall-clock value
CLOCK_MODULES = {"time", "datetime"}
CLOCK_READERS = {"cli", "train"}


def clock_imports(tree: ast.Module) -> set[str]:
    """The clock modules that ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names & CLOCK_MODULES


def test_only_cli_and_train_read_a_clock():
    found = {path.stem: sorted(clock_imports(ast.parse(path.read_text())))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem not in CLOCK_READERS}
    assert {stem: mods for stem, mods in found.items() if mods} == {}, \
        "time the run in cli or train and record it in the run manifest"


@pytest.mark.parametrize("source, reads", [
    ("import time", True),
    ("def f():\n    import time as t", True),
    ("from time import perf_counter", True),
    ("from datetime import datetime", True),
    ("import datetime.timezone", True),
    ("def f(time):\n    return time", False),
    ("from .evaluate import time_sensitivity", False),
    ("import timeit", False),
])
def test_clock_guard_sees_each_kind_of_import(source, reads):
    assert bool(clock_imports(ast.parse(source))) is reads


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


# the refusals that no command can reach, by the text the refusal-row check
# takes from their message, each with the reason
LIBRARY_REFUSALS = {
    "dropout rate must be in [0, 1)": "autodiff.dropout; TrainConfig refuses the rate first",
    "training with dropout requires an rng": "model_forward; train passes its rng",
    "need at least one negative per positive": "sample_negatives; train derives eta >= 1",
    "cannot corrupt within an id range of size":
        "sample_negatives; a one-entity side cannot hold a seed and a test pair",
    "eval_every needs at least one test pair to score":
        "train; the CLI refuses an empty ref_pairs first",
    "out of range for a": "csls_adjust; rank_pool clamps k to the pool",
    "unknown metric space": "rank_alignment; --metric has fixed choices",
    "cannot split an empty quadruple set":
        "split_overlap; read_source_quads refuses an empty source first",
    "forced_shared index out of range": "split_overlap; the planted twins' quads are in range",
    "time-sensitive partition of": "the canned sensitivity_gap pair has test pairs in both",
}
REFUSALS = {"ConfigError", "DatasetError", "ParseError"}


def refusal_texts() -> dict[str, str]:
    """``module:line`` -> the longest constant text of each refusal's message,
    trimmed of punctuation and of a ``, got VALUE`` tail. A message with no
    text of its own passes another error's message on and is left out."""
    texts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in REFUSALS):
                continue
            message = node.args[2 if node.func.id == "ParseError" else 0]
            parts = [n.value for n in ast.walk(message)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            text = max(parts, key=len, default="").split(", got")[0].strip(" :;,(")
            if text:
                texts[f"{path.stem}:{node.lineno}"] = text
    return texts


def test_every_refusal_has_a_readme_row():
    messages = [row[2] for row in refusal_rows()]
    missing = {where: text for where, text in refusal_texts().items()
               if text not in LIBRARY_REFUSALS and not any(text in cell for cell in messages)}
    assert not missing, f"no README refusal row holds {missing}"


def test_library_refusals_are_still_raised():
    """A refusal that is gone, or whose message changed, leaves the list."""
    texts = set(refusal_texts().values())
    assert not set(LIBRARY_REFUSALS) - texts


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    snippet = README.read_text().split("## Library use", 1)[1].split("```python\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    exec(snippet.split("```", 1)[0], {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # this forged pair has no lowly time-sensitive test pair, so that report is left out
    assert [row[0] for row in rows] == ["all", "highly"]
    assert all(0 <= float(value) <= 1 for row in rows for value in row[1:])
