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
