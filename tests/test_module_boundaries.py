"""Module boundaries inside ``src/drinfeld``, read from the source by ``ast``.

A name starting with ``_`` is private to its module, so no module imports
one from a sibling.  Over F_p the coefficient arithmetic runs on the
integer indices of field elements (``FqElem.idx``) and the fold of a
modulus; that representation is fields.py's alone, so no other module
reads ``.idx`` or ``.fold``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drinfeld"
MODULES = sorted(PACKAGE.glob("*.py"))


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
             and node.attr in ("idx", "fold", "_fold")]
    assert not found, "%s reads fields' integer rows: %s" % (path.name, found)


def test_every_module_is_read():
    assert {"fields.py", "forms.py", "sheaves.py", "tau.py"} <= {
        p.name for p in MODULES}
