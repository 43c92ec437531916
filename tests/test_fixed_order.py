"""No output bit depends on the BLAS kernel. OpenBLAS picks its kernel by
CPU, and a kernel with FMA rounds a product otherwise than one without, so
every product in `src/pointvis` whose result reaches an output goes through
`geom.dot3`, which sums in one fixed order. A BLAS product (`@`,
`np.matmul`, `np.dot`, `.dot(`, `np.vdot`, `np.inner`, `np.einsum` or
`np.tensordot`) stays only where it decides a check that a tolerance or a
margin makes safe from rounding: the functions below, each with its count of
sites and its reason."""
import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pointvis"
PRODUCTS = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot"}

ALLOWED = {
    "geom.rotation_error": (1, "R^T R - I, held to a tolerance of 1e-6 or 1e-3"),
    "zbuffer.outside_view": (3, "culling only, by a margin that covers any rounding"),
    "synth.Rect3.__post_init__": (3, "corners, reach and the origin's offsets, only checked for overflow"),
    "ingest.read_pose": (1, "LAPACK's nearest rotation U V^T, for a rotation more than 1e-6 off"),
}


def _products(tree: ast.Module, module: str) -> Counter:
    """The BLAS products in `tree`, counted by the function or method they are in."""
    found = Counter()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in PRODUCTS
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in PRODUCTS
        ):
            found[where] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def test_products_that_reach_an_output_are_in_a_fixed_order():
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        found += _products(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    allowed = {where: count for where, (count, _) in ALLOWED.items()}
    extra = {where: n for where, n in found.items() if n > allowed.get(where, 0)}
    assert not extra, f"BLAS products outside the allow-list (use geom.dot3, or list the site with its reason): {extra}"
    assert dict(found) == allowed, f"allow-list entries with fewer sites than listed: {allowed} against {dict(found)}"
