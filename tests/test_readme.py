"""The README's library example runs as written, and the comment after
each expression in it (`expr  # value`) equals the expression's value."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_values():
    source = _library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        assert comment.startswith("#"), f"no value given: {comment!r}"
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                   namespace)
        assert got == eval(comment[1:], {}), lines[stmt.end_lineno - 1]
        checked += 1
    assert checked == 4
