"""The README shows what the code does: its library example runs as
written, and the comment after each expression in it (`expr  # value`)
equals the expression's value; each `$ orderzeta ...` transcript prints
what the command prints; and the `analyze` flag table lists exactly the
options of the `analyze` parser."""

import ast
import re
import shlex
from pathlib import Path

from orderzeta.cli import build_parser, main

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


def _transcripts():
    """(command line, output) of each README code block that starts
    with `$ orderzeta`."""
    return re.findall(r"```\n\$ orderzeta (.*?)\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S)


def test_readme_transcripts_match_the_output(capsys):
    transcripts = _transcripts()
    assert [shlex.split(command)[0] for command, _ in transcripts] == \
        ["analyze", "mnpoly"]
    for command, output in transcripts:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == output, command


def test_readme_flag_table_lists_the_analyze_options():
    section = README.read_text(encoding="utf-8").split("### analyze", 1)[1]
    table = section.split("Flags:", 1)[1].split("\n\n")[1]
    listed = re.findall(r"^\| `(--[a-z-]+)", table, re.M)
    commands = next(action for action in build_parser()._actions
                    if action.dest == "command")
    options = [option for action in commands.choices["analyze"]._actions
               for option in action.option_strings
               if option not in ("-h", "--help")]
    assert listed == options
