"""The Euler form as an oracle for the knit and for Ext, in every field.

For an algebra A of finite global dimension with Cartan matrix C,
C[i][j] = dim e_i A e_j, the dimension vectors of the projectives are the
rows of C and <dim P(i), y> = dim Hom(P(i), Y) = y_i, so the Euler form is
<x, y> = x . C^-1 . y^T, computed here with sympy alone.  It equals the
alternating sum of dim Ext^k(X, Y) over k up to the global dimension.

The inputs are representation-directed, so every indecomposable X is a
brick without self-extensions and <x, x> = 1 on every node of the knit.
Linear A_n closes with n(n+1)/2 nodes.
"""

from functools import cache

import pytest
from sympy import Matrix as SympyMatrix

from quiverkit.algebra import build_algebra, cartan_matrix
from quiverkit.arquiver import knit
from quiverkit.homology import ext_dim, global_dim, min_resolution
from quiverkit.quiver import parse_presentation
from test_repmod import _fixture_over

FIELDS = ["rational", "gf(32003)", "gf(3)", "gf(5)", "gf(7)"]
PAIR_FIELDS = ["rational", "gf(3)"]
NAMES = ["A6", "nakayama_8_3", "d4_tilted.q", "d4_tilted_ext_s2.q"]


def _linear(n, k, field):
    """Linear A_n, modulo all paths of length k when k is given."""
    text = (f"field: {field}\nvertices: {' '.join(str(i) for i in range(1, n + 1))}\n"
            f"arrows: {', '.join(f'a{i}: {i} -> {i + 1}' for i in range(1, n))}\n")
    if k:
        text += "relations: " + ", ".join(
            "*".join(f"a{j}" for j in range(i, i + k)) for i in range(1, n - k + 1)) + "\n"
    return build_algebra(parse_presentation(text))


def _algebra(name, field):
    if name == "A6":
        return _linear(6, None, field)
    if name == "nakayama_8_3":
        return _linear(8, 3, field)
    return _fixture_over(name, field)


@cache
def _closed_knit(name, field):
    """The algebra, the nodes of its closed knit and C^-1."""
    a = _algebra(name, field)
    frag = knit(a, 60)
    assert frag.incomplete_reason is None
    return a, frag.nodes, SympyMatrix(cartan_matrix(a)).inv()


def _euler(cinv, x, y):
    return (SympyMatrix([list(x)]) * cinv * SympyMatrix([list(y)]).T)[0, 0]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", NAMES)
def test_every_node_has_euler_form_one(name, field):
    a, nodes, cinv = _closed_knit(name, field)
    assert global_dim(a) is not None
    assert [_euler(cinv, x.dims, x.dims) for x in nodes] == [1] * len(nodes)
    if name == "A6":
        assert len(nodes) == 6 * 7 // 2


@pytest.mark.parametrize("field", PAIR_FIELDS)
@pytest.mark.parametrize("name", NAMES)
def test_alternating_ext_sum_is_the_euler_form(name, field):
    a, nodes, cinv = _closed_knit(name, field)
    gd = global_dim(a)
    wrong = []
    for x in nodes:
        res = min_resolution(x, gd + 1)
        for y in nodes:
            chi = sum((-1) ** k * ext_dim(x, y, k, res)[0] for k in range(gd + 1))
            if chi != _euler(cinv, x.dims, y.dims):
                wrong.append((x.label, y.label))
    assert wrong == []
