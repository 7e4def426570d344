"""Every name a ``stegnet`` module imports is used in that module, and
no module reaches the parser-token step.

A dependency-free stand-in for a linter's unused-import rule.  The
package ``__init__`` is skipped because its imports are re-exports, and
``from __future__`` imports are compiler directives, not names.
"""

import ast
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stegnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module):
    """(line, bound name) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Names read anywhere, including inside string annotations."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = ["line %d: %s" % (line, name) for line, name in _imported(tree) if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


# CPython's compile peak for a module steps up by about 0.45 MB once it
# reaches 8,192 parser tokens (every token but comments and blank
# lines), and perfbench imports stegnet without bytecode, so crossing
# the step costs peak memory on every workload and changes no
# behaviour.  ROADMAP V, moving the traffic layer out of simnet.py, is
# the way out when the largest module needs the room.
PARSER_TOKEN_STEP = 8192


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_the_parser_token_step(path):
    with path.open("rb") as source:
        tokens = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokenize.tokenize(source.readline))
    assert tokens < PARSER_TOKEN_STEP, "%s has %d parser tokens" % (path.name, tokens)
