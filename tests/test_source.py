"""The package source holds only code the package uses.

Every public function and method in ``src/opkit`` is referenced somewhere
in the package outside its own definition, or exported from
``opkit/__init__.py``.  A function counts as used when its name is read as
a variable or an attribute; a method only when it is read as an attribute,
so a function of the same name elsewhere does not hide an unused method.
A helper that only tests call belongs in ``tests/`` as a reference copy.

``backend._rref``, the dense elimination, is read only by
``solve_affine``; every other elimination is ``backend._sparse_rref``.
Only ``backend`` reads a matrix's fields or echelon rows, or builds a
``Matrix`` from integer rows.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "opkit"

# perfbench/tracer.py patches kernels.poly_term_mul by name (its
# KERNEL_LAYER), so removing it breaks every traced benchmark run; it goes
# when the tracer's kernel list changes.
UNUSED_ALLOWED = {("kernels", "poly_term_mul")}


def public_definitions(tree):
    """(name, node, is_method) for each public module-level function and
    each public method of a module-level class."""
    for node in tree.body:
        is_method = isinstance(node, ast.ClassDef)
        for member in node.body if is_method else [node]:
            if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")):
                yield member.name, member, is_method


def referenced_names(tree, skip, attributes_only=False):
    """Names read as an attribute, and unless ``attributes_only`` as a
    variable, anywhere in tree outside the node ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not attributes_only:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def reads(node, name):
    """True when ``node`` reads or imports ``name``; a dotted
    ``Owner.attr`` is only the attribute read on the name ``Owner``."""
    owner, _, attr = name.rpartition(".")
    if isinstance(node, ast.Attribute) and node.attr == attr:
        return not owner or (isinstance(node.value, ast.Name)
                             and node.value.id == owner)
    return not owner and (isinstance(node, ast.Name) and node.id == name
                          or isinstance(node, ast.alias) and node.name == name)


def readers(trees, name):
    """(module, function) for each module-level function and method of a
    module-level class in ``trees`` that reads or imports ``name``, other
    than ``name`` itself, and (module, None) for a read anywhere else."""
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if not any(reads(n, name) for n in ast.walk(member)):
                    continue
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if member.name != name.rpartition(".")[2]:
                        found.add((module, member.name))
                else:
                    found.add((module, None))
    return found


def source_trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SOURCE.glob("*.py"))}


def unused_definitions(trees, exported=frozenset()):
    """(module, name, line) of each public definition in ``trees`` (module
    name -> parsed source) that nothing outside itself reads and
    ``exported`` does not hold."""
    for module, tree in trees.items():
        for name, node, is_method in public_definitions(tree):
            if name in exported or (module, name) in UNUSED_ALLOWED:
                continue
            if not any(name in referenced_names(other, node, is_method)
                       for other in trees.values()):
                yield module, name, node.lineno


def test_every_public_function_is_used_or_exported():
    trees = source_trees()
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [f"{module}.{name} (line {line})"
              for module, name, line in unused_definitions(trees, exported)]
    assert unused == []


def test_the_check_finds_an_unused_function():
    tree = ast.parse("def used():\n    return 1\n\n"
                     "def unused():\n    return used()\n\n"
                     "class C:\n    def method(self):\n"
                     "        return self.method()\n")
    found = {name for _, name, _ in unused_definitions({"m": tree})}
    assert found == {"unused", "method"}


def test_a_function_of_the_same_name_does_not_hide_a_method():
    # entry() is called by name in b, so the function is used, but nothing
    # reads .entry, so the method is not; a read of .called is a use.
    trees = {"a": ast.parse("class C:\n    def entry(self):\n"
                            "        return 1\n\n"
                            "    def called(self):\n        return 2\n"),
             "b": ast.parse("def entry():\n    return 3\n\n"
                            "def main(c):\n    return c.called()\n\n"
                            "if __name__ == '__main__':\n"
                            "    main(entry())\n")}
    found = {(module, name) for module, name, _ in unused_definitions(trees)}
    assert found == {("a", "entry")}


def test_solve_affine_is_the_only_dense_elimination():
    # Every other caller eliminates through backend._sparse_rref; the dense
    # path stays behind solve_affine alone until that moves too.
    assert readers(source_trees(), "_rref") == {("backend", "solve_affine")}


def test_only_backend_reads_matrix_fields_and_echelon_rows():
    # Matrices and echelon forms leave backend as values: Fractions, kernel
    # vectors, matrices built by backend, or a canonical span to compare.
    trees = source_trees()
    outside = {(name, module, function)
               for name in ("_entries", "_den", "echelon", "null_echelon",
                            "Matrix._wrap", "Matrix._canonical")
               for module, function in readers(trees, name)
               if module != "backend"}
    assert outside == set()


def test_a_dotted_name_is_read_on_its_owner_only():
    tree = ast.parse("def build(rows):\n    return Matrix._wrap(rows, 1, 2)\n\n"
                     "def poly(terms):\n    return Polynomial._wrap(terms, 1)\n\n"
                     "def imported():\n    from m import _wrap\n")
    assert readers({"m": tree}, "Matrix._wrap") == {("m", "build")}
    assert readers({"m": tree}, "_wrap") == {
        ("m", "build"), ("m", "poly"), ("m", "imported")}


def test_the_check_finds_every_reader():
    tree = ast.parse("from b import helper\n\n"
                     "def helper():\n    return helper()\n\n"
                     "def direct():\n    return helper()\n\n"
                     "class C:\n    def method(self):\n"
                     "        return mod.helper\n\n"
                     "ALIAS = helper\n")
    assert readers({"m": tree}, "helper") == {
        ("m", None), ("m", "direct"), ("m", "method")}
