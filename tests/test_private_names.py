"""No dead private code in ``src/``: every top-level function of a
``mrcscatter`` module whose name starts with ``_`` is referenced by name
somewhere in the package besides its own definition.  A private function that
only tests call is a test helper living in the library, and one that nothing
calls is dead.
"""

import ast
from pathlib import Path

import mrcscatter

SOURCES = sorted(Path(mrcscatter.__file__).parent.glob("*.py"))

# private functions kept though no code in src/ calls them, with the reason
EXEMPT = {
    # an independent recurrence for y_n, the reference test_specfun.py compares
    # Im h1 of _hankel_out_pair with bitwise; the pipelines read h1 from the pair
    ("specfun", "_yn_table"),
}


def referenced_names(tree: ast.AST) -> list[str]:
    """Every name a piece of code reads, as a bare name, an attribute or an import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
    return names


def test_every_private_function_is_referenced_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    everywhere = {stem: referenced_names(tree) for stem, tree in trees.items()}
    unreferenced = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")):
                continue
            # a function that only calls itself is not referenced
            count = sum(names.count(node.name) for names in everywhere.values())
            if count == referenced_names(node).count(node.name) and (stem, node.name) not in EXEMPT:
                unreferenced.append(f"{stem}.{node.name}")
    assert unreferenced == []


def test_every_exemption_names_an_existing_private_function():
    for stem, name in EXEMPT:
        tree = ast.parse((Path(mrcscatter.__file__).parent / f"{stem}.py").read_text(encoding="utf-8"))
        assert name in [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
