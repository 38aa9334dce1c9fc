import ast
from pathlib import Path

import hodgecover


def test_no_assert_statements_in_package():
    """Exact yes/no decisions must survive `python -O`, which strips every
    `assert`; the package raises its own errors instead."""
    found = []
    for path in sorted(Path(hodgecover.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
