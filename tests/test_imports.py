"""The runtime dependency is numpy alone: every absolute import in
`src/chemlm` names the standard library, numpy or chemlm itself."""

import ast
import os
import sys

import chemlm

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "chemlm"}


def absolute_imports(path):
    """(line, top-level module) of each absolute import in one file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_stdlib_numpy_and_chemlm_are_imported():
    root = os.path.dirname(chemlm.__file__)
    modules = [os.path.join(d, f) for d, _, files in os.walk(root) for f in files
               if f.endswith(".py")]
    assert len(modules) > 20
    outside = [f"{os.path.relpath(path, root)}:{line} imports {name}"
               for path in modules for line, name in absolute_imports(path)
               if name not in ALLOWED]
    assert outside == []
