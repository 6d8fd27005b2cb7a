"""The query path never imports the lemma layer, and the lemma layer uses
only public names of the query path.  Every package import stands at the
top of its module, the imports between modules form no cycle, and the Luks
recursion answers its sub-queries without the string front ends.

Every module of the package is parsed with ``ast``; imports inside function
bodies count as well as those at the top.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "setiso")

QUERY = {"perm", "graphs", "pstrings", "strings", "solver", "refine", "hfs",
         "minorfree", "fileio", "oracle"}
LEMMA = {"structure", "normalize", "simplify", "certificates"}
FRONT = {"__init__", "cli"}


def _modules() -> set:
    return {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}


def _tree(module: str) -> ast.Module:
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _imports(module: str) -> list:
    """(line, imported package module, imported name or None) for every
    import of a package module anywhere in ``module``."""
    out = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "setiso" and len(parts) > 1:
                    out.append((node.lineno, parts[1], None))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                target = node.module
            elif node.module and node.module.split(".")[0] == "setiso":
                target = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if target is None:   # from . import mod
                    out.append((node.lineno, alias.name, None))
                else:
                    out.append((node.lineno, target.split(".")[0], alias.name))
    return out


def test_every_module_has_a_layer():
    assert _modules() == QUERY | LEMMA | FRONT


def test_query_modules_import_no_lemma_module():
    found = [(module, line, target) for module in sorted(QUERY)
             for line, target, _ in _imports(module) if target in LEMMA]
    assert found == []


def test_lemma_modules_import_only_public_query_names():
    found = [(module, line, target, name) for module in sorted(LEMMA)
             for line, target, name in _imports(module)
             if target in QUERY and name is not None and name.startswith("_")]
    assert found == []


def test_lemma_modules_pass_no_private_keyword():
    # no lemma function takes an underscore parameter, so such a keyword
    # could only reach a private parameter of a query function
    found = [(module, node.lineno, node.arg) for module in sorted(LEMMA)
             for node in ast.walk(_tree(module))
             if isinstance(node, (ast.keyword, ast.arg))
             and node.arg is not None and node.arg.startswith("_")]
    assert found == []


def test_no_package_import_inside_a_function():
    found = []
    for module in sorted(_modules()):
        tree = _tree(module)
        inner = {node.lineno for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
        found += [(module, line, target) for line, target, _ in _imports(module)
                  if line in inner]
    assert found == []


def test_the_package_imports_form_no_cycle():
    modules = _modules()
    remaining = {m: {target for _, target, _ in _imports(m)} & modules - {m} for m in modules}
    while remaining:
        # modules that import none of the remaining ones
        leaves = [m for m, targets in remaining.items() if not targets & remaining.keys()]
        assert leaves, "import cycle among %s" % sorted(remaining)
        for m in leaves:
            del remaining[m]


def test_the_recursion_uses_no_string_front_end():
    front = {"string_iso", "StringQuery", "ColoredString", "set_of_strings_iso"}
    found = [(module, node.lineno, node.id) for module in ("solver", "refine")
             for node in ast.walk(_tree(module))
             if isinstance(node, ast.Name) and node.id in front]
    found += [(module, line, name) for module in ("solver", "refine")
              for line, _, name in _imports(module) if name in front]
    assert found == []
