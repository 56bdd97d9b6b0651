"""Private names cited in the package's docstrings and comments exist."""

import ast
import importlib
import io
import pathlib
import re
import tokenize
import types

import pytest

import hwtheta

PACKAGE = pathlib.Path(hwtheta.__file__).parent

#: A private name, `_name`, not an attribute of something else unless that
#: something is named just before it: `sg._X_MAX` gives ("sg", "_X_MAX").
CITED = re.compile(r"(?<![\w.])(?:([A-Za-z]\w*)\.)?(_[A-Za-z]\w*)")


def _prose(source):
    """The docstrings (module, class and function) and comments of source."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def _stale(path, module):
    """The private names cited in the source at path that module, its
    import, does not define and that name no package module; `alias._name`
    is looked up in the package module that alias names there, and skipped
    where alias names none (another library's attribute)."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    stale = set()
    for text in _prose(path.read_text()):
        for alias, name in CITED.findall(text):
            owner = module
            if alias:
                owner = getattr(module, alias, None)
                if not (
                    isinstance(owner, types.ModuleType)
                    and owner.__name__.startswith("hwtheta")
                ):
                    continue
            if not hasattr(owner, name) and name not in modules:
                stale.add(f"{alias}.{name}" if alias else name)
    return sorted(stale)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_cited_private_name_exists(path):
    name = "hwtheta" if path.stem == "__init__" else f"hwtheta.{path.stem}"
    assert _stale(path, importlib.import_module(name)) == []


def test_a_stale_citation_is_caught(tmp_path):
    # the check itself: a docstring naming a function the module lacks, and
    # a comment naming another package module's missing constant, are found
    path = tmp_path / "probe.py"
    path.write_text(
        '"""Sums panels (_panel_terms) as _prose reads them."""\n'
        "from hwtheta import saddle_geometry as sg\n"
        "_prose = None\n"
        "# past sg._X_MAX and sg._NO_SUCH, os._exit\n"
    )
    module = types.ModuleType("probe")
    exec(path.read_text(), module.__dict__)
    assert _stale(path, module) == ["_panel_terms", "sg._NO_SUCH"]
