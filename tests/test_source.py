"""The package source holds only code the package uses.

Every public function and method in ``src/opkit`` is referenced somewhere
in the package outside its own definition, or exported from
``opkit/__init__.py``.  A helper that only tests call belongs in
``tests/`` as a reference copy.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "opkit"

# perfbench/tracer.py patches kernels.poly_term_mul by name (its
# KERNEL_LAYER), so removing it breaks every traced benchmark run; it goes
# when the tracer's kernel list changes.
UNUSED_ALLOWED = {("kernels", "poly_term_mul")}


def public_definitions(tree):
    """(name, node) for each public module-level function and each public
    method of a module-level class."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")):
                yield member.name, member


def referenced_names(tree, skip):
    """Names read as a variable or an attribute anywhere in tree outside
    the node ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_function_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            if name in exported or (module, name) in UNUSED_ALLOWED:
                continue
            if not any(name in referenced_names(other, node)
                       for other in trees.values()):
                unused.append(f"{module}.{name} (line {node.lineno})")
    assert unused == []


def test_the_check_finds_an_unused_function():
    tree = ast.parse("def used():\n    return 1\n\n"
                     "def unused():\n    return used()\n\n"
                     "class C:\n    def method(self):\n"
                     "        return self.method()\n")
    found = {name for name, node in public_definitions(tree)
             if name not in referenced_names(tree, node)}
    assert found == {"unused", "method"}
