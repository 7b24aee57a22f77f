"""Module boundaries inside ``src/drinfeld``, read from the source by ``ast``.

A name starting with ``_`` is private to its module, so no module imports
one from a sibling.  Over F_p the coefficient arithmetic runs on the
integer indices of field elements (``FqElem.idx``), kept by ``Poly`` and
``AResidue`` as one bytes row (``.row``), and the fold of a modulus; that
representation is fields.py's alone, so no other module reads ``.idx``,
``.row`` or ``.fold``.  Every name a module or script imports is
used in it, except the re-exports of the package's ``__init__.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drinfeld"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_sibling(node):
    """An ``import from`` of this package: relative, or by its name."""
    module = node.module or ""
    return node.level > 0 or module == "drinfeld" or \
        module.startswith("drinfeld.")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_from_siblings(path):
    found = ["line %d: %s from %s" % (node.lineno, alias.name, node.module)
             for node in ast.walk(parse(path))
             if isinstance(node, ast.ImportFrom) and is_sibling(node)
             for alias in node.names if alias.name.startswith("_")]
    assert not found, "%s imports private names: %s" % (path.name, found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_integer_rows_stay_in_fields(path):
    found = ["line %d: %s" % (node.lineno, ast.unparse(node))
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute)
             and node.attr in ("idx", "row", "fold", "_fold")]
    assert not found, "%s reads fields' integer rows: %s" % (path.name, found)


def test_every_module_is_read():
    assert {"fields.py", "forms.py", "sheaves.py", "tau.py"} <= {
        p.name for p in MODULES}


def imported_names(tree):
    """(line, bound name) for every import in tree; ``import a.b`` binds a."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"] + SCRIPTS,
    ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["line %d: %s" % (line, name)
              for line, name in imported_names(tree) if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, unused)
