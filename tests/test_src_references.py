"""Every name the package defines is used by the package itself.

A function, class, method or module constant of src/realwonder that no
module of src/realwonder reads is either dead or test code living in the
library; tests keep their helpers and references in tests/.  The walk is
static (stdlib ast): a module-level name counts as used when its own
module reads it, or another module imports it (``from .m import name``)
or reads it through a module alias (``from . import m as mm``, then
``mm.name``) and uses it; a method or property counts as used when any
module reads an attribute of that name.
"""

import ast
import pathlib

import realwonder

PACKAGE = pathlib.Path(realwonder.__file__).parent

# Kept though no module reads them, each for a caller outside the package.
ALLOWED = {
    # the GaussianRational views and constructors of the exact kernel
    # that the kernel-oracle tests compare the integer rows against
    "ProjSubspace.from_constraints",
    "ProjSubspace.constraints",
    "ProjSubspace.basis",
    "ProjSubspace.whole",
    "ProjSubspace.empty",
    "ProjSubspace.key",
    "subspaces.contains",
    # the documented dense schema-v1 rebuild of a v2 report; the v1
    # digests are pinned through it
    "report.to_v1",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def _defined(trees):
    """(qualified name, key) of each function, class, module constant
    and non-dunder method; key is what a use must match."""
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((f"{mod}.{node.name}", (mod, node.name)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        out.append((f"{node.name}.{item.name}", item.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id.isupper():
                            out.append((f"{mod}.{name.id}", (mod, name.id)))
    return out


def _used(trees):
    """The (module, name) pairs and attribute names the package reads; a
    top-level definition's reads of its own name do not count."""
    used = set()
    for mod, tree in trees.items():
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = names.get(node.id, (mod, node.id))
                    if key != (mod, own):
                        used.add(key)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                    if isinstance(node.value, ast.Name) and node.value.id in modules:
                        used.add((modules[node.value.id], node.attr))
    return used


def test_every_src_name_is_used_in_src():
    trees = _trees()
    used = _used(trees)
    public = set(realwonder.__all__)
    unused = sorted(
        qual
        for qual, key in _defined(trees)
        if key not in used and qual not in ALLOWED and qual.rsplit(".", 1)[1] not in public
    )
    assert unused == [], f"defined in src/realwonder but never used there: {unused}"
