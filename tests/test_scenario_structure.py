"""Per-spaces structure built once per process: the cached local vertices
with their content-LP matrix, the cached no-signalling constraints, the
direct vertex audit and the index-arithmetic no-signalling check.  The
audit is checked against the enumerated vertices, the no-signalling bound
against the oracle's generators on the CHSH spaces, and the no-signalling
check and LP builders against the Scalar code they replaced
(``reference_scenario``)."""

import random
import sys
import threading
import tracemalloc
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CHSH_SPACES,
    OVERSIZED_SPACES,
    SMALL_SPACES,
    WIDE_SPACES,
    numbered_spaces,
    ns_behaviors,
    random_ns_behavior,
)
from hvlab.bell import BellExpression, _gathers, _ns_constraints, _ns_lp, chsh, evaluate, local_bound, ns_bound
from hvlab.boxes import (
    CACHED_SPACES,
    Behavior,
    deterministic_behavior,
    is_no_signalling,
    marginal,
    uniform_behavior,
)
from hvlab.catalog import noise_box, pr_box, table1_box
from hvlab.decompose import (
    LocalDecomposition,
    _local_vertices,
    _vertex_output_tables,
    content_lp_problem,
    decomposition_to_model,
    enumerate_local_vertices,
    max_local_content,
    verify_decomposition,
)
from hvlab.errors import InvalidBehavior, SizeBudgetExceeded, SpaceMismatch
from hvlab.hvmodel import check_locality, check_triviality, nontrivial_weight
from hvlab.scalar import HALF, ONE, SQRT2, ZERO, Scalar, _reduced
from hvlab.simplex import LpProblem, Matrix, check_certificate, solve_lp
from oracle import extremal_generator_tables, local_generator_tables
from reference_scenario import cell_coordinate_rows, collins_gisin_full_lp, marginal_is_no_signalling, scalar_ns_lp
from reference_simplex import dense_rows


# -- cached vertices -----------------------------------------------------------


def test_cache_sizes_are_the_module_constant():
    assert CACHED_SPACES == 4
    assert _local_vertices.cache_info().maxsize == CACHED_SPACES
    assert _ns_constraints.cache_info().maxsize == CACHED_SPACES
    assert _gathers.cache_info().maxsize == CACHED_SPACES


def test_equal_spaces_built_separately_share_one_vertex_tuple():
    first = enumerate_local_vertices(numbered_spaces(2, 3, 2, 2))
    second = enumerate_local_vertices(numbered_spaces(2, 3, 2, 2))
    assert first is second
    assert all(a is b for a, b in zip(first, second))


def test_a_list_of_label_sets_is_accepted():
    spaces = numbered_spaces(3, 2, 2, 2)
    assert enumerate_local_vertices(list(spaces)) is enumerate_local_vertices(spaces)


@pytest.mark.parametrize("spaces", [SMALL_SPACES, CHSH_SPACES, numbered_spaces(3, 2, 2, 3)])
def test_vertices_are_the_lexicographic_strategy_behaviors(spaces):
    settings_a, settings_b, outcomes_x, outcomes_y = spaces
    expected = tuple(
        deterministic_behavior(*spaces, outputs_a, outputs_b)
        for outputs_a in product(outcomes_x.labels, repeat=len(settings_a))
        for outputs_b in product(outcomes_y.labels, repeat=len(settings_b))
    )
    assert enumerate_local_vertices(spaces) == expected


def test_both_budgets_refuse_on_every_call():
    for _ in range(3):
        with pytest.raises(SizeBudgetExceeded, match="531441"):
            enumerate_local_vertices(OVERSIZED_SPACES)
        with pytest.raises(SizeBudgetExceeded, match="67108864 cells"):
            enumerate_local_vertices(list(WIDE_SPACES))


def test_a_vertex_cache_entry_holds_no_dense_scalar_rows():
    """One entry at two settings and six outcomes per side (1296 vertices
    of 144 cells) takes about 2.0 MiB with Python 3.11: 1.6 MiB of vertex
    tables and 0.4 MiB of matrix columns.  The bound fails if the matrix
    keeps its rows a second time, as int rows (3.4 MiB in all) or dense
    Scalar rows, each about 1.4 MiB more."""
    spaces = numbered_spaces(2, 2, 6, 6)
    _local_vertices.cache_clear()
    tracemalloc.start()
    try:
        vertices = enumerate_local_vertices(spaces)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vertices) == 1296
    assert size < 2.5 * 2**20


def test_evicted_spaces_are_rebuilt_equal():
    spaces = numbered_spaces(1, 3, 2, 2)
    before = enumerate_local_vertices(spaces)
    for k in range(CACHED_SPACES):
        enumerate_local_vertices(numbered_spaces(1, 1, 2, k + 2))
    assert enumerate_local_vertices(spaces) == before


# -- content-LP matrix ---------------------------------------------------------


def _transposed_problem(box, vertices):
    """The content LP built directly: row i is cell i of every vertex table."""
    rows = tuple(zip(*(vertex.table for vertex in vertices))) if vertices else ((),) * len(box.table)
    return LpProblem((ONE,) * len(vertices), rows, box.table)


@pytest.mark.parametrize(
    "spaces", [SMALL_SPACES, CHSH_SPACES, numbered_spaces(3, 2, 2, 3)], ids=["small", "chsh", "3223"]
)
def test_content_lp_uses_the_matrix_built_with_the_vertices(spaces):
    box = random_ns_behavior(random.Random(3), spaces)
    vertices = enumerate_local_vertices(spaces)
    problem = content_lp_problem(box, vertices)
    assert isinstance(vertices.matrix, Matrix)
    assert problem.A is vertices.matrix
    assert problem == _transposed_problem(box, vertices)


@pytest.mark.parametrize(
    "pick",
    [lambda v: tuple(reversed(v)), lambda v: v[1::3], lambda v: tuple(v), lambda v: v[:1], lambda v: ()],
    ids=["reversed", "every-third", "copy", "first", "empty"],
)
def test_content_lp_on_a_caller_built_vertex_tuple(pick):
    box = random_ns_behavior(random.Random(4), numbered_spaces(2, 3, 2, 2))
    cached = enumerate_local_vertices(box.spaces)
    vertices = pick(cached)
    problem = content_lp_problem(box, vertices)
    assert problem.A is not cached.matrix
    assert problem == _transposed_problem(box, vertices)


def _mixed_vertex_tuple(box):
    """Vertices of 36 cells each, the first on the 2233 box's spaces and
    the rest on 3322 ones."""
    return enumerate_local_vertices(box.spaces)[:1] + enumerate_local_vertices(numbered_spaces(3, 3, 2, 2))[1:]


@pytest.mark.parametrize(
    "vertices",
    [
        lambda box: enumerate_local_vertices(numbered_spaces(3, 3, 2, 2)),
        lambda box: enumerate_local_vertices(numbered_spaces(2, 2, 2, 2)),
        _mixed_vertex_tuple,
    ],
    ids=["cached-3322", "cached-2222", "caller-built-mixed"],
)
def test_content_lp_refuses_vertices_on_other_spaces(vertices):
    # Without the check, the cached 3322 vertices (36 cells, like the box)
    # give a certified "optimal" 4/9 for a box of content 1.
    box = uniform_behavior(*numbered_spaces(2, 2, 3, 3))
    with pytest.raises(SpaceMismatch, match="^vertex and behavior spaces differ$"):
        content_lp_problem(box, vertices(box))


# -- direct vertex audit -------------------------------------------------------

_CELL_VALUES = (ZERO, ONE, -ONE, Scalar(2), HALF, SQRT2, ONE - SQRT2)


@st.composite
def _near_vertices(draw):
    """Tables biased toward deterministic vertices: a vertex of random
    spaces with up to two local defects, then possibly relaid onto spaces
    of the same cell count with the outcome or setting counts swapped."""
    na, nb, nx, ny = (draw(st.integers(1, 3)) for _ in range(4))
    block = nx * ny
    xs = [draw(st.integers(0, nx - 1)) for _ in range(na)]
    ys = [draw(st.integers(0, ny - 1)) for _ in range(nb)]
    table = [ZERO] * (na * nb * block)
    for ia, ix in enumerate(xs):
        for ib, iy in enumerate(ys):
            table[(ia * nb + ib) * block + ix * ny + iy] = ONE
    for defect in draw(st.lists(st.sampled_from(("alice", "bob", "2,-1", "halves", "cell")), max_size=2)):
        start = draw(st.integers(0, na * nb - 1)) * block
        unit = next(k for k in range(block) if table[start + k] == ONE) if ONE in table[start : start + block] else 0
        ux, uy = divmod(unit, ny)
        other = draw(st.integers(0, block - 1))
        if defect == "alice":  # the unit moves to Alice's next outcome
            table[start + unit], table[start + ((ux + 1) % nx) * ny + uy] = ZERO, ONE
        elif defect == "bob":
            table[start + unit], table[start + ux * ny + (uy + 1) % ny] = ZERO, ONE
        elif defect == "2,-1":
            table[start + unit], table[start + other] = Scalar(2), -ONE
        elif defect == "halves":
            table[start + unit], table[start + other] = HALF, HALF
        else:
            table[start + other] = draw(st.sampled_from(_CELL_VALUES))
    shape = draw(st.sampled_from(((na, nb, nx, ny), (na, nb, ny, nx), (nb, na, nx, ny))))
    return Behavior(*numbered_spaces(*shape), tuple(table))


def _is_enumerated_vertex(behavior: Behavior) -> bool:
    """The definition the audit must meet: one of the deterministic
    strategy boxes that vertex enumeration builds on these spaces."""
    return behavior in enumerate_local_vertices(behavior.spaces)


@given(_near_vertices())
@settings(max_examples=300, deadline=None)
def test_vertex_audit_accepts_exactly_the_enumerated_vertices(behavior):
    assert (_vertex_output_tables(behavior) is not None) == _is_enumerated_vertex(behavior)


@given(_near_vertices(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_audit_refuses_vertices_on_other_spaces(vertex, same_spaces):
    target = Behavior(*vertex.spaces, vertex.table) if same_spaces else pr_box()
    d = LocalDecomposition((vertex,), (ONE,), None, ONE)
    check = next(c for c in verify_decomposition(d, target).checks if c.name == "vertices_are_local_deterministic")
    assert check.ok == (vertex.spaces == target.spaces and _is_enumerated_vertex(vertex))


# -- no-signalling check by index arithmetic ------------------------------------


@st.composite
def _perturbed_boxes(draw, shapes=None):
    """No-signalling boxes on asymmetric spaces of up to three settings and
    outcomes per side, or of a shape drawn from ``shapes``, with up to two
    moves of mass inside one (a, b) block: a valid box that generically
    signals.  A move takes a fraction 1/2, 1/sqrt2 or 1 of a cell, so
    cells can carry sqrt2 parts."""
    if shapes is None:
        counts = [draw(st.sampled_from((1, 2, 2, 3))) for _ in range(2)] + [draw(st.integers(1, 3)) for _ in range(2)]
    else:
        counts = draw(shapes)
    box = draw(ns_behaviors(spaces=numbered_spaces(*counts)))
    table = list(box.table)
    block = len(box.outcomes_x) * len(box.outcomes_y)
    for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
        start = draw(st.integers(0, len(table) // block - 1)) * block
        source, target = (start + draw(st.integers(0, block - 1)) for _ in range(2))
        if source != target:
            moved = table[source] * draw(st.sampled_from((HALF, SQRT2 / 2, ONE)))
            table[source], table[target] = table[source] - moved, table[target] + moved
    return Behavior(*box.spaces, tuple(table))


@given(_perturbed_boxes())
@settings(max_examples=300, deadline=None)
def test_no_signalling_check_matches_the_marginal_reference(box):
    assert is_no_signalling(box) == marginal_is_no_signalling(box)


def test_no_signalling_check_refuses_an_invalid_box_as_the_reference_does():
    box = Behavior(*CHSH_SPACES, (ONE,) * 16)
    for check in (is_no_signalling, marginal_is_no_signalling):
        with pytest.raises(InvalidBehavior):
            check(box)


# -- cached no-signalling constraints -------------------------------------------


_COEFFICIENTS = (ZERO, ONE, -ONE, HALF, -HALF, SQRT2, -SQRT2)


@given(st.lists(st.sampled_from(_COEFFICIENTS), min_size=16, max_size=16))
@settings(max_examples=100, deadline=None)
def test_ns_bound_on_chsh_spaces_is_the_best_of_the_oracle_generators(coefficients):
    """The no-signalling polytope on two settings and two outcomes a side
    is the hull of the 16 local deterministic boxes and the 8 PR-type
    boxes, which the oracle lists as plain Fractions in the same cell
    order."""
    expression = BellExpression(*CHSH_SPACES, tuple(coefficients))
    generators = local_generator_tables() + extremal_generator_tables()
    best = max(sum((c * Scalar(g) for c, g in zip(coefficients, table)), ZERO) for table in generators)
    assert ns_bound(expression) == best


@st.composite
def _expressions(draw):
    """Expressions on up to three settings and outcomes per side, often
    with one setting or one outcome on a side (no Collins-Gisin marginal
    variables for that side when it has one outcome)."""
    counts = [draw(st.sampled_from((1, 1, 2, 3))) for _ in range(4)]
    size = prod(counts)
    return BellExpression(*numbered_spaces(*counts), tuple(draw(st.sampled_from(_COEFFICIENTS)) for _ in range(size)))


@given(_expressions(), st.data())
@settings(max_examples=100, deadline=None)
def test_ns_bound_lies_between_the_local_bound_and_no_no_signalling_box_beats_it(expression, data):
    bound = ns_bound(expression)
    assert local_bound(expression)[0] <= bound
    assert evaluate(expression, data.draw(ns_behaviors(spaces=expression.spaces))) <= bound


@pytest.mark.parametrize(
    "shape, size",
    [((2, 2, 2, 2), (8, 8)), ((3, 3, 2, 2), (21, 15)), ((5, 5, 2, 2), (65, 35)), ((2, 3, 1, 3), (6, 6))],
)
def test_ns_constraints_have_a_row_per_cell_that_is_no_coordinate(shape, size):
    """|A||B||X||Y| - n rows of n columns with two outcomes or more a side;
    with one outcome on Alice's side, the cells of Bob's coordinates at
    Alice's other settings restate q >= 0 too and keep no row.  b is 1
    exactly where both outcomes are last, and every entry is +-1."""
    na, nb, nx, ny = shape
    matrix, rhs, cells, coords, restated = _ns_constraints(numbered_spaces(*shape))
    assert (matrix.height, len(matrix.columns)) == size
    assert len(coords) == len(matrix.columns)
    assert sorted((*cells, *coords, *(cell for cell, _ in restated))) == list(range(prod(shape)))
    if min(nx, ny) >= 2:
        assert matrix.height == prod(shape) - len(coords) and not restated
    assert rhs == tuple(ONE._v if cell % (nx * ny) == nx * ny - 1 else ZERO._v for cell in cells)
    assert all(type(v) is int and v in (1, -1) for column in matrix.columns for _, v in column)


@pytest.mark.parametrize(
    "shape",
    [
        (2, 2, 2, 2),
        (3, 3, 2, 2),
        (5, 5, 2, 2),
        (2, 3, 1, 3),
        (2, 2, 3, 4),
        (1, 1, 1, 1),
        (1, 1, 3, 3),
        (1, 3, 2, 3),
        (3, 1, 3, 2),
        (2, 2, 1, 1),
        (2, 3, 3, 1),
        (3, 2, 1, 2),
    ],
)
def test_ns_constraints_equal_the_matrix_of_the_dense_reference_rows(shape):
    """The columns written as they are computed are those ``Matrix.from_rows``
    reads off the reference's dense cell-coordinate rows, less exactly the
    rows -q_j <= 0 with b = 0, spaces with one setting or one outcome on a
    side included; each column is the reference's cell, and each other
    dropped cell is named with the coordinate q_j it is."""
    spaces = numbered_spaces(*shape)
    matrix, rhs, cells, coords, restated = _ns_constraints(spaces)
    rows, reference_coords = cell_coordinate_rows(spaces)

    def restates(row, bound):
        nonzero = [(j, v) for j, v in enumerate(row) if not v.is_zero()]
        return bound.is_zero() and len(nonzero) == 1 and nonzero[0][1] == -ONE

    kept = [cell for cell, (row, bound) in enumerate(rows) if not restates(row, bound)]
    expected = Matrix.from_rows((rows[cell][0] for cell in kept), len(reference_coords))
    assert matrix.height == expected.height == len(kept)
    assert matrix.columns == expected.columns
    assert rhs == tuple(rows[cell][1]._v for cell in kept)
    assert cells == tuple(kept)
    assert coords == tuple(reference_coords)
    assert all(rows[cell][0].index(-ONE) == j for j, cell in enumerate(coords))
    assert restated == tuple(
        (cell, row.index(-ONE))
        for cell, (row, bound) in enumerate(rows)
        if restates(row, bound) and cell not in reference_coords
    )
    assert all(type(v) is int and v in (1, -1) for column in matrix.columns for _, v in column)


def test_a_cached_ns_matrix_holds_only_its_columns():
    """Eight settings and two outcomes per side (176 rows of 80 columns,
    626 nonzero entries, and the 80 cells that are coordinates) take
    about 0.05 MiB with Python 3.11 when this test runs alone, and about
    0.01 MiB after the rest of this file, whose freed tuples the
    interpreter reuses untraced.  The bound fails, alone and after the
    rest of the file, if the matrix keeps its rows as well, as int rows
    (0.17 MiB in all alone, 0.13 MiB after the file) or dense Scalar rows
    (0.23 and 0.15 MiB)."""
    spaces = numbered_spaces(8, 8, 2, 2)
    _ns_constraints.cache_clear()
    tracemalloc.start()
    try:
        matrix, *_ = _ns_constraints(spaces)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (matrix.height, len(matrix.columns)) == (176, 80)
    assert size < 0.1 * 2**20


def test_building_an_ns_matrix_holds_no_dense_row():
    """Building the 8 x 8 x 2 x 2 matrix from an empty cache peaks at about
    0.06 MiB with Python 3.11 when this test runs alone (0.015 MiB after
    the rest of this file): the column lists the entries are appended to
    and the kept columns.  The bound fails, alone and after the rest of
    the file, if the dense rows are built before the matrix keeps their
    nonzero entries: about 0.28 MiB alone and 0.16 MiB after the file for
    the 176 rows it keeps, 0.33 and 0.22 MiB for one per cell."""
    spaces = numbered_spaces(8, 8, 2, 2)
    _ns_constraints.cache_clear()
    tracemalloc.start()
    try:
        _ns_constraints(spaces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


# Shapes with one setting or one outcome on a side, where the restated
# cells and the empty coordinate groups are.
_THIN_SHAPES = st.sampled_from(
    [(1, 2, 2, 3), (3, 1, 2, 2), (2, 2, 1, 3), (2, 3, 3, 1), (1, 1, 3, 2), (2, 2, 1, 1), (1, 3, 1, 2)]
)


@given(st.one_of(_perturbed_boxes(), _perturbed_boxes(_THIN_SHAPES)))
@settings(max_examples=100, deadline=None)
def test_ns_rows_give_back_every_no_signalling_box(box):
    """b - A.q at the cells with a row, and q_j at the cells that are
    coordinates or restate one, with q read straight off the box's
    coordinate cells, is the box's table exactly when the box does not
    signal."""
    matrix, rhs, cells, coords, restated = _ns_constraints(box.spaces)
    q = [box.table[cell] for cell in coords]
    rows = dense_rows(matrix.columns, len(rhs))
    table = [None] * len(box.table)
    for cell, row, bound in zip(cells, rows, rhs):
        table[cell] = _reduced(*bound) - sum((a * v for a, v in zip(row, q)), ZERO)
    for j, cell in enumerate(coords):
        table[cell] = q[j]
    for cell, j in restated:
        table[cell] = q[j]
    assert (tuple(table) == box.table) == is_no_signalling(box)[0]


@st.composite
def _outcome_expressions(draw):
    """Expressions on one or two settings and two to four outcomes a side,
    with rational coefficients only or with sqrt2 parts too."""
    counts = [draw(st.integers(1, 2)) for _ in range(2)] + [draw(st.integers(2, 4)) for _ in range(2)]
    values = _COEFFICIENTS if draw(st.booleans()) else (ZERO, ONE, -ONE, HALF, -HALF, Scalar(3))
    return BellExpression(*numbered_spaces(*counts), tuple(draw(st.sampled_from(values)) for _ in range(prod(counts))))


@given(_outcome_expressions())
@settings(max_examples=40, deadline=None)
def test_ns_bound_is_the_optimum_of_the_lp_with_a_row_per_cell(expression):
    """Dropping the rows that restate q_j >= 0 moves no bound: ns_bound is
    the certified optimum of the LP with every cell's row, plus the
    constant part."""
    problem = collins_gisin_full_lp(expression)
    solution = solve_lp(problem)
    assert check_certificate(problem, solution)
    _, _, nx, ny = map(len, expression.spaces)
    constant = sum(expression.table[nx * ny - 1 :: nx * ny], ZERO)
    assert ns_bound(expression) == constant + solution.value


def test_expressions_on_equal_spaces_share_one_constraint_matrix():
    other = BellExpression(*CHSH_SPACES, (ONE,) * 16)
    assert _ns_constraints(other.spaces) is _ns_constraints(chsh().spaces)
    first, second = _ns_lp(chsh()), _ns_lp(other)
    assert first.A is second.A and first.b == second.b


def _mixed_expression(spaces, seed: int) -> BellExpression:
    """Coefficients with mixed denominators and sqrt2 parts, some zero."""
    rng = random.Random(seed)
    values = (ZERO, ONE, -ONE, HALF, SQRT2, -SQRT2, Scalar(1, 0) / 3, Scalar(0, 1) / 5, Scalar(-2, 3) / 7)
    return BellExpression(*spaces, tuple(rng.choice(values) for _ in range(prod(len(space) for space in spaces))))


@pytest.mark.parametrize(
    "expression",
    [
        _mixed_expression(SMALL_SPACES, 1),
        chsh(),
        _mixed_expression(CHSH_SPACES, 2),
        _mixed_expression(numbered_spaces(3, 3, 2, 2), 3),
        BellExpression(*numbered_spaces(3, 3, 2, 2), (SQRT2,) * 36),
    ],
    ids=["small", "chsh", "chsh-mixed", "3322-sqrt2", "3322-constant"],
)
def test_ns_lp_objective_equals_the_scalar_sum_builder(expression):
    """Summing each objective coefficient in ints over one common
    denominator builds the same LP as summing it in Scalars."""
    assert _ns_lp(expression) == scalar_ns_lp(expression)


# -- shared objects under threads ----------------------------------------------


def _work(boxes, expressions):
    results = []
    for box in boxes:
        marginals = [
            marginal(box, side, (a, b)) for side in ("alice", "bob") for a in box.settings_a for b in box.settings_b
        ]
        d = max_local_content(box)
        problem = content_lp_problem(box, enumerate_local_vertices(box.spaces))
        model = decomposition_to_model(d)
        locality, _ = check_locality(model)
        results.append(
            (
                marginals,
                d.local_content,
                d.vertices,
                d.weights,
                verify_decomposition(d, box).ok,
                check_certificate(problem, d.certificate),
                locality,
                check_triviality(model),
                nontrivial_weight(model),
                problem,
            )
        )
    results.extend((ns_bound(expression), _ns_lp(expression)) for expression in expressions)
    return results


def test_concurrent_builds_match_the_serial_results():
    # Every box and expression is on CHSH_SPACES, so all threads share one
    # vertex tuple with its content-LP matrix and one no-signalling
    # matrix, built while they race from empty caches.  The threads share
    # fresh boxes, equal to the serial ones but with nothing remembered, so
    # they also race to store each box's int view, marginal table and
    # validity report; the triviality checks on each decomposition's model
    # read the marginal tables of the shared vertices too.
    rng = random.Random(11)
    boxes = [table1_box(), pr_box(), noise_box()] + [random_ns_behavior(rng, CHSH_SPACES) for _ in range(2)]
    coefficients = tuple(rng.choice((ZERO, ONE, -ONE, SQRT2)) for _ in range(16))
    expressions = [chsh(), BellExpression(*CHSH_SPACES, coefficients)]
    serial = _work(boxes, expressions)
    assert all(ok and certified and local for *_, ok, certified, local, _, _, _ in serial[: len(boxes)])

    _local_vertices.cache_clear()
    _ns_constraints.cache_clear()
    assert _local_vertices.cache_info().currsize == _ns_constraints.cache_info().currsize == 0
    workers = 8
    results = []
    barrier = threading.Barrier(workers)

    fresh = [Behavior(*box.spaces, box.table) for box in boxes]
    assert not any(hasattr(box, name) for box in fresh for name in ("_ints", "_marginals", "_validity"))

    def run():
        barrier.wait(timeout=30)
        results.append(_work(fresh, expressions))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == workers
    assert all(result == serial for result in results)
