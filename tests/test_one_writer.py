"""Every file a command writes goes through `chemlm.manifest`'s writer:
no other module under `src/chemlm` opens a file for writing, opens a
descriptor with write flags, or renames a file into place."""

import ast
import os

import chemlm

WRITE_MODE_LETTERS = set("wax+")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _mode(call):
    """The mode argument of an `open` call, or None when it has none."""
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def _writes(node):
    """Why a call node writes a file, or None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(node)
        if mode is None:
            return None
        if not isinstance(mode, ast.Constant):
            return "open with a computed mode"
        if WRITE_MODE_LETTERS & set(mode.value):
            return f"open mode {mode.value!r}"
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "os":
        if func.attr in ("replace", "rename"):
            return f"os.{func.attr}"
        if func.attr == "open":
            flags = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            flags |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if flags & WRITE_FLAGS:
                return "os.open with write flags"
    return None


def write_sites(path):
    """(line, reason) of each call in one file that writes a file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            reason = _writes(node)
            if reason:
                yield node.lineno, reason


def test_only_the_manifest_module_writes_files():
    root = os.path.dirname(chemlm.__file__)
    modules = [os.path.join(d, f) for d, _, files in os.walk(root) for f in files
               if f.endswith(".py")]
    assert len(modules) > 20
    sites = {os.path.relpath(path, root): list(write_sites(path)) for path in modules}
    # the scan sees the writer's own calls, so it would see another's
    assert {reason for _, reason in sites.pop("manifest.py")} >= {
        "open with a computed mode", "os.open with write flags", "os.replace"}
    assert [f"{rel}:{line} {reason}" for rel, found in sorted(sites.items())
            for line, reason in found] == []


def test_scan_catches_each_kind_of_write(tmp_path):
    path = tmp_path / "writes.py"
    path.write_text(
        "import os\n"
        "open(p, 'w')\n"
        "open(p, mode='ab')\n"
        "open(p, 'r+')\n"
        "open(p, 'x', encoding='utf-8')\n"
        "os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "os.replace(a, b)\n"
        "os.rename(a, b)\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "os.open(p, os.O_RDONLY)\n",
        encoding="utf-8",
    )
    assert [line for line, _ in write_sites(path)] == [2, 3, 4, 5, 6, 7, 8]
