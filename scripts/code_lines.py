#!/usr/bin/env python3
"""Count the library code lines of each module under ``src/galkit`` and
print them, with their total, as JSON:

    python3 scripts/code_lines.py [--root DIR]

A code line is a physical line that holds part of a token other than a
comment, and that lies in no docstring (the string that opens a module, a
class or a function).  So blank lines, comment lines and docstrings are not
counted, and every line of a statement that spans several lines is.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(package: str) -> dict:
    """module path (relative to ``package``) -> code lines, and the total."""
    modules = {}
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    modules[os.path.relpath(path, package)] = code_lines(fh.read())
    return {"modules": modules, "total": sum(modules.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=ROOT, help="the checkout to count")
    args = parser.parse_args(argv)
    json.dump(count(os.path.join(args.root, "src", "galkit")), sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
