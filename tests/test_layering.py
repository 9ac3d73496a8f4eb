"""The package's modules form one chain, and each imports only down it."""

from __future__ import annotations

import ast
from pathlib import Path

import ipn

#: Lowest first: a module may import only the modules before it.  Every
#: module may raise the package's errors; the package's ``__init__``
#: re-exports the library, so it sits on top.
CHAIN = ("errors", "measure", "subordination", "stieltjes", "spikes", "simulate",
         "cli", "__init__")


def package_imports(tree: ast.Module) -> set[str]:
    """Names of the ipn modules a module imports, at any depth of its code
    (function-level imports included), relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "ipn":
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            found |= {parts[0]} if parts else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("ipn.")}
    return found


def test_imports_point_down_the_chain():
    src = Path(ipn.__file__).parent
    assert sorted(path.stem for path in src.glob("*.py")) == sorted(CHAIN)
    for level, name in enumerate(CHAIN):
        upward = package_imports(ast.parse((src / f"{name}.py").read_text()))
        upward -= set(CHAIN[:level])
        assert upward == set(), f"{name} imports {sorted(upward)} from above it"
