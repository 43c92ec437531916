"""Every public module-level name in `src/pointvis` has a reader: the
package itself, the benchmark (`viewbench/*.py`), the acceptance criteria
(`tests/test_acceptance.py`) or a script in `scripts/`. A name that only
the unit tests read is code kept for its tests, and is deleted or moved
into them. Likewise every defaulted parameter is one that some reader
sets: an option that no reader sets is a constant."""
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


def _modules_and_readers():
    """The package's parsed modules by path, and every parsed Python reader:
    the package, the benchmark and the acceptance criteria."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [*modules.values()]
    readers += [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "viewbench").glob("*.py"))]
    readers.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    return modules, readers


def test_every_public_name_has_a_reader():
    modules, readers = _modules_and_readers()
    reads = sum((_reads(tree) for tree in readers), Counter())
    scripts = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "scripts").rglob("*")) if p.is_file())

    unread = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            own = _reads(node)[name]  # a name's own definition (a recursive call among them) is not a reader
            if reads[name] <= own and not re.search(rf"\b{re.escape(name)}\b", scripts):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"public names with no reader in src/, viewbench/, scripts/ or test_acceptance.py: {unread}"


def _defaulted(tree: ast.Module):
    """(name, [(parameter, its position or None)]) for the defaulted parameters
    of each public function at the top of a module, and for the defaulted
    `__init__` fields of each public dataclass, in field order."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            a = node.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            first = len(positional) - len(a.defaults)
            yield node.name, [(x, i) for i, x in enumerate(positional) if i >= first] + [
                (x.arg, None) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        elif (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                      and "init=False" not in ast.unparse(f)]
            yield node.name, [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def _passed(trees) -> dict:
    """The parameters each called name is passed in `trees`: positions (ints)
    and keywords (strs), and "*" for a call with `*` or `**`, which may pass
    any. A callable handed to a call, as in `tracer.call(label, fn, *args)`,
    is taken as called with the arguments after it."""
    passed = {}
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        for i, fn in enumerate([node.func, *node.args]):
            name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
            if name is not None:
                args = node.args[i:]
                got = passed.setdefault(name, set())
                got.update(range(len(args)), (k.arg or "*" for k in node.keywords))
                if any(isinstance(a, ast.Starred) for a in args):
                    got.add("*")
    return passed


# defaulted parameters that no reader sets, each with the reason it stays
SEAMS = {
    "cli.main(argv)": "the tests run the CLI in process through it",
    "ingest.attach_descriptors(channels)": "tests/test_golden.py pins a 4-channel map",
}


def test_every_defaulted_parameter_is_set_by_a_reader():
    """A defaulted parameter of a public function, or a defaulted `__init__`
    field of a public dataclass, that no reader passes is a knob with one
    value in use, and is made a constant. The scripts reach the package only
    through the CLI, whose calls are in `cli`. A keyword passes its
    parameter, a positional argument the parameter at its index, and a call
    with `*` or `**` every parameter, so the rule errs towards passing. That
    last clause hides fields: `cli`'s `CanyonParams(**...)` counts as setting
    every scene field, so a field that no `synth` option sets, as
    `close_end` was, passes the rule."""
    modules, readers = _modules_and_readers()
    passed = _passed(readers)
    unset = set()
    for path, tree in modules.items():
        for name, defaulted in _defaulted(tree):
            got = passed.get(name, set())
            unset.update(f"{path.stem}.{name}({param})" for param, pos in defaulted if not {"*", param, pos} & got)
    unseamed, stale = sorted(unset - set(SEAMS)), sorted(set(SEAMS) - unset)
    assert not unseamed, f"defaulted parameters no reader in src/, viewbench/ or test_acceptance.py sets: {unseamed}"
    assert not stale, f"seams that a reader now sets: {stale}"
