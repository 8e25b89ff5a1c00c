"""The package ships no code that only tests use: every function and class
that src/gridflow defines at module level, and every method of those
classes, is named by the program outside its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gridflow").glob("*.py"))
PROGRAM = sorted({*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*"),
                  *(ROOT / "demos").glob("*"),
                  *(ROOT / "perfbench").glob("*.py")})


def definitions(tree):
    """The module's top-level functions and classes, and the methods that
    those classes define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_package_name_has_a_caller():
    texts = {path: path.read_text() for path in PROGRAM if path.is_file()}
    unnamed = []
    for path in PACKAGE:
        lines = texts[path].splitlines()
        for node in definitions(ast.parse(texts[path])):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([d.lineno for d in node.decorator_list]
                        + [node.lineno])
            outside = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(outside if p == path else text)
                       for p, text in texts.items()):
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert not unnamed, "named nowhere outside their definitions: " + \
        ", ".join(unnamed)
