"""Every public module-level name in `src/pointvis` has a reader: the
package itself, the benchmark (`viewbench/*.py`), the acceptance criteria
(`tests/test_acceptance.py`) or a script in `scripts/`. A name that only
the unit tests read is code kept for its tests, and is deleted or moved
into them."""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pointvis"


def _definitions(tree: ast.Module):
    """(name, node) for each public def, class and assigned name at the top of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _reads(tree: ast.AST) -> Counter:
    """Each name `tree` loads, takes as an attribute or imports, with its count."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.alias):
            reads[node.name.rsplit(".", 1)[-1]] += 1
    return reads


def test_every_public_name_has_a_reader():
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [*modules.values()]
    readers += [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "viewbench").glob("*.py"))]
    readers.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    reads = sum((_reads(tree) for tree in readers), Counter())
    scripts = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "scripts").rglob("*")) if p.is_file())

    unread = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            own = _reads(node)[name]  # a name's own definition (a recursive call among them) is not a reader
            if reads[name] <= own and not re.search(rf"\b{re.escape(name)}\b", scripts):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"public names with no reader in src/, viewbench/, scripts/ or test_acceptance.py: {unread}"
