"""``src/mcsp`` holds only code the program runs: every function, class and
method there is reachable from ``cli.main``, from module-level code, from
the names ``mcsp.__all__`` exports or from the benchmark (``bench/*.py``,
whose tracer wraps attributes it names by string). Code only the tests call
belongs in ``tests/reference.py``.

Reachability is matched by name, transitively: a definition is reached when
a reached body mentions its name (as a name, an attribute or an identifier
string), and a method only when its class is reached too; the language
calls dunder methods itself. Name matching can miss an unused definition
that shares a used one's name, but it never flags a used one."""

import ast
from pathlib import Path

import mcsp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mcsp"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _mentions(nodes) -> set[str]:
    """The names, attributes and identifier strings in ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    out.add(sub.value)
    return out


def _definitions():
    """(qualified name, name, qualified name of its class or None, the nodes
    it runs) for every top-level function and class of ``src/mcsp`` and
    every method; a class runs its bases, decorators and body statements."""
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, DEFS):
                continue
            qual = f"{path.stem}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield qual, node.name, None, [node]
                continue
            rest = [item for item in node.body if not isinstance(item, DEFS)]
            yield qual, node.name, None, node.bases + node.decorator_list + rest
            for item in node.body:
                if isinstance(item, DEFS):
                    yield f"{qual}.{item.name}", item.name, qual, [item]


def _roots() -> set[str]:
    """``main``, the exports, what module-level code of ``src/mcsp`` other
    than imports mentions, and everything ``bench/*.py`` mentions."""
    names = {"main"} | set(mcsp.__all__)
    for path in sorted(SRC.glob("*.py")):
        names |= _mentions(node for node in _parse(path).body
                           if not isinstance(node, DEFS + (ast.Import, ast.ImportFrom)))
    for path in sorted((ROOT / "bench").glob("*.py")):
        names |= _mentions([_parse(path)])
    return names


def unreachable() -> list[str]:
    """The qualified names of the definitions no root reaches."""
    defs = list(_definitions())
    reached, live = _roots(), set()
    grew = True
    while grew:
        grew = False
        for qual, name, owner, nodes in defs:
            called = name in reached or (owner is not None and name.startswith("__"))
            if qual in live or not called or (owner is not None and owner not in live):
                continue
            live.add(qual)
            reached |= _mentions(nodes)
            grew = True
    return sorted(qual for qual, *_ in defs if qual not in live)


def test_every_definition_in_src_is_reachable():
    assert unreachable() == []


def test_only_the_driver_builds_reports():
    """Every solver's report is made in ``driver.py`` (``finish_report``,
    and the reports without a schedule), so one costing rule covers all."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "driver.py"
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
        and "SolveReport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []


def _outside(node: ast.AST, name: str):
    """The nodes under ``node``, leaving out every class called ``name``."""
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.ClassDef) and child.name == name):
            yield child
            yield from _outside(child, name)


def test_only_the_rounding_state_writes_the_fixings():
    """Outside ``RoundingState``, no subscript assignment in ``src/mcsp``
    writes the fixing arrays: no ``.gamma[...]`` or ``.omega[...]`` target,
    and none through their aliases ``G`` and ``O``. Every fixing goes
    through ``RoundingState.fix``, the one merge rule."""
    writes = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in _outside(_parse(path), "RoundingState")
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and (getattr(node.value, "attr", None) in ("gamma", "omega")
             or getattr(node.value, "id", None) in ("G", "O"))
    ]
    assert writes == []
