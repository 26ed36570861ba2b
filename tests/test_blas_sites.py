"""Guard on the products that numpy hands to BLAS or to its einsum and linalg loops.

Their rounding depends on the BLAS kernel and the CPU (ROADMAP item 2), so each one is a
site to rewrite as column arithmetic in a fixed order. This test lists every `@`, `@=`,
`.dot`, `np.einsum`, `np.dot`, `np.matmul`, `np.inner`, `np.tensordot`, `np.vdot` and
`np.linalg.*` in src/ by (module, function) and holds the list to the allow-list below, so a
new such product anywhere else fails here.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pentawave"

ALLOWED = Counter({
    ("wavefield", "__init__"): 1,  # a sine sum's outer products d_i d_i^T, once per field
    ("wavefield", "project"): 1,  # p . d_i
    ("wavefield", "combine"): 1,  # sum_i c_i d_i, the adjoint of project
    ("wavefield", "hess"): 1,  # the einsum over the outer products
    ("identities", "_expansion"): 2,  # the phases and the weighted sum of their sines
    ("pentagrid", "tiles"): 2,  # the inverse of a family pair's normals, and the solve
})

_NUMPY_PRODUCTS = {"einsum", "dot", "matmul", "inner", "tensordot", "vdot"}


def _dotted(node):
    """The dotted name of an attribute chain such as np.linalg.inv, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _is_product(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    name = _dotted(node.func) or ""
    head, _, rest = name.partition(".")
    if head in ("np", "numpy"):
        return rest in _NUMPY_PRODUCTS or rest.startswith("linalg.")
    return node.func.attr == "dot"  # the ndarray method


def _sites(node, scope):
    """(scope) of every product below node: the innermost function, or at module level
    the name a statement assigns."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        elif scope is None and isinstance(child, ast.Assign):
            inner = ", ".join(ast.unparse(target) for target in child.targets)
        if _is_product(child):
            yield inner
        yield from _sites(child, inner)


def blas_sites():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update((path.stem, scope) for scope in _sites(tree, None))
    return found


def test_blas_products_are_exactly_the_allow_list():
    assert blas_sites() == ALLOWED


def test_the_guard_sees_every_form_of_product():
    source = "\n".join([
        "X = a @ b",
        "def f(a, b):",
        "    a @= b",
        "    return np.einsum('i,i', a, b) + a.dot(b) + numpy.matmul(a, b)",
        "def g(a):",
        "    def h():",
        "        return np.linalg.solve(a, a)",
        "    return np.linalg.inv(a), np.sum(a), np.outer(a, a), a * a",
    ])
    found = Counter(_sites(ast.parse(source), None))
    assert found == Counter({"X": 1, "f": 4, "h": 1, "g": 1})
