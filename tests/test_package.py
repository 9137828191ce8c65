import ast
from pathlib import Path

import crossseg

# Signatures that match another's (a protocol method, and an rng method
# a stand-in replaces), so they take parameters they never read.
STAND_INS = {"SegmenterLike.segment_batch", "_Skeleton.uniform"}


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone fails here, not
    # at a user's `from crossseg import *`
    missing = [n for n in crossseg.__all__ if not hasattr(crossseg, n)]
    assert missing == []
    assert len(set(crossseg.__all__)) == len(crossseg.__all__)


def _unread_parameters(node: ast.AST, prefix: str = ""):
    """(qualified function name, parameter) for every parameter of a
    function or lambda under node that its body never reads; a name that
    starts with _ declares a parameter unread on purpose."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, ast.ClassDef):
            name = f"{prefix}{child.name}."
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            a = child.args
            body = [child.body] if isinstance(child, ast.Lambda) \
                else child.body
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                      a.kwarg):
                if p and p.arg not in read and not p.arg.startswith("_"):
                    yield name, p.arg
            name += "."
        yield from _unread_parameters(child, name)


def test_every_parameter_is_read():
    src = Path(crossseg.__file__).parent
    unread = [f"{path.name}: {fn}({arg})"
              for path in sorted(src.glob("*.py"))
              for fn, arg in _unread_parameters(
                  ast.parse(path.read_text("utf-8")))
              if fn not in STAND_INS]
    assert unread == []


def _annotations(tree: ast.Module):
    """The annotation of every argument, annotated assignment and return."""
    for n in ast.walk(tree):
        if isinstance(n, (ast.arg, ast.AnnAssign)):
            yield n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield n.returns


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module binds by import and never reads, in code or in an
    annotation written as a string; a __future__ import binds no name."""
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    trees = [tree] + [ast.parse(a.value, mode="eval")
                      for a in _annotations(tree)
                      if isinstance(a, ast.Constant)
                      and isinstance(a.value, str)]
    read = {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    # a name left imported after its last use is gone fails here, in src
    # and in the tests; __init__.py imports to re-export
    assert _unused_imports(ast.parse(
        "from __future__ import annotations\nimport a.b\nfrom c import d, e"
        "\ndef f(x: 'd') -> None: a.b()")) == ["e"]
    paths = [*sorted(Path(crossseg.__file__).parent.glob("*.py")),
             *sorted(Path(__file__).parent.glob("*.py"))]
    unused = [f"{path.parent.name}/{path.name}: {name}" for path in paths
              if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text("utf-8")))]
    assert unused == []


def _unread_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level functions and classes (a name that starts with
    one _) that no module reads, by name or as an attribute; a helper that
    only tests call is one."""
    defined = [(module, n.name) for module, tree in trees.items()
               for n in tree.body
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
               and n.name.startswith("_") and not n.name.startswith("__")]
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}
    return [f"{module}: {name}" for module, name in defined
            if name not in read]


def test_every_private_definition_is_read():
    assert _unread_private_definitions({"m": ast.parse(
        "def _a(): pass\ndef _b(): pass\nclass _C: pass\n"
        "def f(): return _a, x._C")}) == ["m: _b"]
    src = Path(crossseg.__file__).parent
    trees = {path.name: ast.parse(path.read_text("utf-8"))
             for path in sorted(src.glob("*.py"))}
    assert _unread_private_definitions(trees) == []
