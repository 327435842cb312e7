"""Dead-code guard for the package, using nothing but the ast module.

Every module-level function and class of src/orderzeta must be used
somewhere in the package outside its own definition, where a re-export
from __init__.py counts as a use; every method of a class there that is
not a dunder must be read as an attribute somewhere in the package
outside its own definition (a local variable of the same name is not a
use, and a function or method that only tests call belongs in the
tests); every defaulted parameter of a function, method or
constructor there must be set by some call in the package or the
tests; every __slots__ field of a class there must be read as an
attribute somewhere in the package; and no module but __init__.py
(which re-exports the public API) may import a name it never uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orderzeta"


def _parsed(directory):
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(directory.glob("*.py"))]


def _names_used(node):
    """Identifiers and attribute names read anywhere in the subtree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_has_a_use():
    defined = []              # (module path, name)
    uses = {}                 # name -> the definitions it is used inside
    for path, tree in _parsed(PACKAGE):
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = (path, stmt.name)
                defined.append(owner)
            names = list(_names_used(stmt))
            if path.name == "__init__.py" and \
                    isinstance(stmt, ast.ImportFrom):
                names += [alias.name for alias in stmt.names]
            for name in names:
                uses.setdefault(name, set()).add(owner)
    dead = [f"{path.name}: {name}" for path, name in defined
            if not uses.get(name, set()) - {(path, name)}]
    assert not dead, f"defined but never used: {dead}"


def test_every_method_has_a_use_in_the_package():
    defined = []              # (module path, class name, method name)
    uses = {}                 # name -> the methods it is read inside
    for path, tree in _parsed(PACKAGE):
        for stmt in tree.body:
            parts = [(None, stmt)]
            if isinstance(stmt, ast.ClassDef):
                parts = [((path, stmt.name, sub.name), sub)
                         if isinstance(sub, ast.FunctionDef) else (None, sub)
                         for sub in stmt.body]
                parts += [(None, node) for node in stmt.decorator_list
                          + stmt.bases]
            for owner, node in parts:
                if owner and not (owner[2].startswith("__")
                                  and owner[2].endswith("__")):
                    defined.append(owner)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute):
                        uses.setdefault(sub.attr, set()).add(owner)
    dead = [f"{path.name}: {cls}.{name}" for path, cls, name in defined
            if not uses.get(name, set()) - {(path, cls, name)}]
    assert not dead, f"methods never read in the package: {dead}"


def test_no_unused_imports():
    unused = []
    for path, tree in _parsed(PACKAGE):
        if path.name == "__init__.py":
            continue
        imported = []
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and \
                    stmt.module != "__future__":
                imported += [a.asname or a.name for a in stmt.names]
            elif isinstance(stmt, ast.Import):
                imported += [(a.asname or a.name).partition(".")[0]
                             for a in stmt.names]
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported
                   if name not in read]
    assert not unused, f"imported but never used: {unused}"


def _sets(call, index, name):
    """Whether a call may set the parameter at this position (None for a
    keyword-only one) or of this name."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def _callables(stmt):
    """(called name, label, definition, leading self/cls parameters) for
    a module-level function, or for each method of a class: a
    constructor is called by its class name, and the other dunders by
    operators, so they are left out."""
    if isinstance(stmt, ast.FunctionDef):
        yield stmt.name, stmt.name, stmt, 0
    elif isinstance(stmt, ast.ClassDef):
        for sub in stmt.body:
            if not isinstance(sub, ast.FunctionDef):
                continue
            label = f"{stmt.name}.{sub.name}"
            if sub.name == "__init__":
                yield stmt.name, label, sub, 1
            elif not (sub.name.startswith("__") and sub.name.endswith("__")):
                yield sub.name, label, sub, 1


def test_every_defaulted_parameter_is_set_somewhere():
    # an option that no call in src/ or tests/ sets is dead code too
    calls = {}                # called name -> the calls
    for _, tree in _parsed(PACKAGE) + [
            (path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "tests").rglob("*.py"))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr",
                                                            None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path, tree in _parsed(PACKAGE):
        for stmt in tree.body:
            for called, label, func, bound in _callables(stmt):
                args = func.args
                positional = (args.posonlyargs + args.args)[bound:]
                first = len(positional) - len(args.defaults)
                options = [(i, a.arg) for i, a in enumerate(positional)
                           if i >= first]
                options += [(None, a.arg) for a, default
                            in zip(args.kwonlyargs, args.kw_defaults)
                            if default is not None]
                unset += [f"{path.name}: {label}({name})"
                          for index, name in options
                          if not any(_sets(call, index, name)
                                     for call in calls.get(called, ()))]
    assert not unset, f"defaulted parameters that no call sets: {unset}"


def test_every_record_field_is_read_in_the_package():
    # a __slots__ name that no code in src/ reads as an attribute is a
    # field that is stored and never used
    fields = []               # (module path, class name, field name)
    read = set()
    for path, tree in _parsed(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                fields += [(path, node.name, elt.value)
                           for stmt in node.body
                           if isinstance(stmt, ast.Assign)
                           and any(getattr(t, "id", None) == "__slots__"
                                   for t in stmt.targets)
                           for elt in stmt.value.elts]
    unread = [f"{path.name}: {cls}.{name}" for path, cls, name in fields
              if name not in read]
    assert not unread, f"record fields never read in the package: {unread}"
