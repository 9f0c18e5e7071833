import ast
import inspect
import types

import mlfrac


def _bound_public_names() -> set[str]:
    """Public names that mlfrac/__init__.py binds, by import or assignment."""
    tree = ast.parse(inspect.getsource(mlfrac))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {
        n for n in names
        if not n.startswith("_") and not isinstance(getattr(mlfrac, n), types.ModuleType)
    }


def test_all_lists_each_bound_public_name_once():
    assert len(mlfrac.__all__) == len(set(mlfrac.__all__))
    assert set(mlfrac.__all__) == _bound_public_names()

