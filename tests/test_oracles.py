"""The differential suite keeps one literal oracle per law: every literal
definition lives in ``oracles.py``, every shared strategy in
``strategies.py``, each is used, and no two strategies share a name."""
from __future__ import annotations

import ast
import os

import pytest
from oracles import assert_lattice_of_sets

from galkit.order import powerset_lattice

TESTS = os.path.dirname(os.path.abspath(__file__))
SHARED = ("oracles", "strategies")


def parsed(name: str) -> ast.Module:
    with open(os.path.join(TESTS, f"{name}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def suite_modules() -> dict:
    return {f[:-3]: parsed(f[:-3]) for f in sorted(os.listdir(TESTS))
            if f.startswith("test_") and f.endswith(".py")}


def functions(tree: ast.AST) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_only_the_oracles_module_defines_literal_definitions():
    defined = {name: [f.name for f in functions(tree) if f.name.startswith("literal_")]
               for name, tree in {**suite_modules(), "strategies": parsed("strategies")}.items()}
    assert {name: fs for name, fs in defined.items() if fs} == {}


def test_every_oracle_and_strategy_is_used_by_a_test():
    # a top-level name of the shared modules is used when a test module
    # imports it, or a used one refers to it
    shared = {name: parsed(name) for name in SHARED}
    tops = {}
    for tree in shared.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                tops[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    tops[target.id] = node
    used = {alias.name for tree in suite_modules().values() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in SHARED
            for alias in node.names}
    todo = list(used)
    while todo:
        for node in ast.walk(tops[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in tops and node.id not in used:
                used.add(node.id)
                todo.append(node.id)
    defined = {f.name for tree in shared.values() for f in tree.body
               if isinstance(f, ast.FunctionDef)}
    assert defined - used == set()


def test_no_two_strategies_share_a_name():
    def composite(f):
        return any(isinstance(d, ast.Attribute) and d.attr == "composite" for d in f.decorator_list)

    names = [f.name for tree in [*suite_modules().values(), *map(parsed, SHARED)]
             for f in functions(tree) if composite(f)]
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_the_oracles_assert_under_python_O():
    # conftest.py has pytest rewrite their asserts, as it rewrites the test
    # modules', so that they are not stripped
    with pytest.raises(AssertionError):
        assert_lattice_of_sets(powerset_lattice(["a"]), [("{a}", frozenset("b"))])
