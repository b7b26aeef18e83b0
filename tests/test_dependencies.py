import ast
import pathlib
import sys

import pbklab

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    # the runtime dependency is numpy alone; scipy or mpmath may be
    # installed alongside, so an import of them would pass unnoticed
    foreign = []
    for path in sorted(pathlib.Path(pbklab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []
