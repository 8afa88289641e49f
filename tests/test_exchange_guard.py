"""Every row exchange outside ``functions/agg.py`` goes through its
primitives (``keyed_exchange``, ``keyed_join``, ``ordered_ranges``): a
hand-written ``groupby(...).map_groups`` pays a Python call per group and a
bucket column of its own. Only the sites below may call ``groupby``, each
with a one-line reason comment above it."""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "pdf_extractor_ray"

# (module, groupby key, method called on the groupby) -> why it stays
ALLOWED = {
    ("functions/relational.py", "c_mktsegment", "map_groups"): "five segments",
    ("functions/relational.py", "event_type", "map_groups"): "a few event types",
    ("functions/relational.py", ("event_type", "user_id"), "aggregate"): "native",
    ("functions/relational.py", ("l_orderkey", "o_orderdate"), "aggregate"): "native",
    ("functions/textops.py", "term", "aggregate"): "native",
}


def _sites():
    """(module, key, method, statement line, call line) per ``groupby`` /
    ``map_groups`` call in the package."""
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "functions/agg.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("groupby", "map_groups")
            ):
                continue
            gb = node.func.value if node.func.attr == "map_groups" else node
            key = method = None
            if isinstance(gb, ast.Call) and getattr(gb.func, "attr", "") == "groupby":
                key = ast.literal_eval(gb.args[0]) if gb.args else None
                key = tuple(key) if isinstance(key, list) else key
                user = parents.get(gb)
                method = getattr(user, "attr", None)
            stmt = node
            while not isinstance(stmt, ast.stmt):
                stmt = parents[stmt]
            yield rel, key, method, stmt.lineno, node.lineno, source.splitlines()


def test_groupby_only_on_allowed_sites():
    bad = [
        f"{rel}:{line} groupby({key!r}).{method}"
        for rel, key, method, _, line, _ in _sites()
        if (rel, key, method) not in ALLOWED
    ]
    assert not bad, "hand-written exchange outside functions/agg.py: " + ", ".join(bad)


def test_allowed_groupby_sites_say_why():
    seen = set()
    for rel, key, method, stmt_line, line, lines in _sites():
        seen.add((rel, key, method))
        above = lines[stmt_line - 2].strip()
        assert above.startswith("#"), f"{rel}:{line} needs a reason comment above"
    assert seen == set(ALLOWED), set(ALLOWED) - seen
