"""The import graph of the convact package, read from its source."""

import ast
from pathlib import Path

import convact

SOURCES = sorted(Path(convact.__file__).parent.glob("*.py"))


def _relative_imports(tree: ast.Module):
    """(node, at module level) for every `from .x import ...` of a module."""
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node, id(node) in top


def test_module_graph_is_acyclic_and_private_names_stay_home():
    imported_by = {}
    for path in SOURCES:
        for node, at_top in _relative_imports(ast.parse(path.read_text())):
            where = f"{path.name}:{node.lineno}"
            # an import deferred into a function is how a cycle hides
            assert at_top, f"{where}: relative import inside a function"
            names = [alias.name for alias in node.names]
            private = [name for name in names if name.startswith("_")]
            assert not private, f"{where}: imports private names {private} from a sibling"
            targets = [node.module] if node.module else names
            imported_by.setdefault(path.stem, set()).update(targets)
    assert "models" in imported_by["stationarity"]  # the walk saw the solve layer's imports
    assert "actions" not in imported_by["stationarity"]


def test_the_csv_cell_format_is_stated_in_grid_alone():
    stating = [path.name for path in SOURCES if "17g" in path.read_text()]
    assert stating == ["grid.py"], stating


def test_a_model_number_is_checked_in_models_finite_alone():
    source = (Path(convact.__file__).parent / "models.py").read_text()
    finite = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "_finite"
    )
    inside = ast.get_source_segment(source, finite).count("isfinite")
    assert inside and source.count("isfinite") == inside


def test_all_lists_only_defined_names_and_covers_the_package_exports():
    exported = {}
    for path in SOURCES:
        module = getattr(convact, path.stem, None)
        if hasattr(module, "__all__"):
            exported[path.stem] = set(module.__all__)
            stale = sorted(name for name in module.__all__ if not hasattr(module, name))
            assert not stale, f"{path.stem}.__all__ names what it does not define: {stale}"
    assert {"grid", "fracops", "identities"} <= set(exported)  # the walk saw the __all__ lists
    init = ast.parse(Path(convact.__file__).read_text())
    for node, _ in _relative_imports(init):
        missing = {alias.name for alias in node.names} - exported[node.module]
        assert not missing, f"convact imports {sorted(missing)} outside {node.module}.__all__"
