"""Per-spaces structure built once per process: the cached local vertices,
the cached no-signalling constraints, and the direct vertex audit, each
against the reference it replaced (``reference_scenario``)."""

import random
import sys
import threading
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CHSH_SPACES, OVERSIZED_SPACES, SMALL_SPACES, WIDE_SPACES, random_ns_behavior
from hvlab.bell import BellExpression, _ns_constraints, _ns_lp, chsh, ns_bound
from hvlab.boxes import CACHED_SPACES, Behavior, LabelSet, deterministic_behavior
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
from hvlab.errors import SizeBudgetExceeded
from hvlab.hvmodel import check_locality
from hvlab.scalar import HALF, ONE, SQRT2, ZERO, Scalar
from hvlab.simplex import check_certificate
from reference_scenario import is_deterministic_vertex, ns_lp


def _spaces(na: int, nb: int, nx: int, ny: int) -> tuple[LabelSet, ...]:
    return tuple(LabelSet(tuple(f"{name}{i}" for i in range(k))) for name, k in zip("abxy", (na, nb, nx, ny)))


# -- cached vertices -----------------------------------------------------------


def test_cache_sizes_are_the_module_constant():
    assert CACHED_SPACES == 4
    assert _local_vertices.cache_info().maxsize == CACHED_SPACES
    assert _ns_constraints.cache_info().maxsize == CACHED_SPACES


def test_equal_spaces_built_separately_share_one_vertex_tuple():
    first = enumerate_local_vertices(_spaces(2, 3, 2, 2))
    second = enumerate_local_vertices(_spaces(2, 3, 2, 2))
    assert first is second
    assert all(a is b for a, b in zip(first, second))


def test_a_list_of_label_sets_is_accepted():
    spaces = _spaces(3, 2, 2, 2)
    assert enumerate_local_vertices(list(spaces)) is enumerate_local_vertices(spaces)


@pytest.mark.parametrize("spaces", [SMALL_SPACES, CHSH_SPACES, _spaces(3, 2, 2, 3)])
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


def test_evicted_spaces_are_rebuilt_equal():
    spaces = _spaces(1, 3, 2, 2)
    before = enumerate_local_vertices(spaces)
    for k in range(CACHED_SPACES):
        enumerate_local_vertices(_spaces(1, 1, 2, k + 2))
    assert enumerate_local_vertices(spaces) == before


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
    return Behavior(*_spaces(*shape), tuple(table))


@given(_near_vertices())
@settings(max_examples=300, deadline=None)
def test_vertex_audit_matches_the_reference(behavior):
    assert (_vertex_output_tables(behavior) is not None) == is_deterministic_vertex(behavior)


@given(_near_vertices(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_audit_refuses_vertices_on_other_spaces(vertex, same_spaces):
    target = Behavior(*vertex.spaces, vertex.table) if same_spaces else pr_box()
    d = LocalDecomposition((vertex,), (ONE,), target, ONE, residual_used=False)
    check = next(c for c in verify_decomposition(d, target).checks if c.name == "vertices_are_local_deterministic")
    assert check.ok == (vertex.spaces == target.spaces and is_deterministic_vertex(vertex))


# -- cached no-signalling constraints -------------------------------------------


@pytest.mark.parametrize(
    "spaces",
    [SMALL_SPACES, CHSH_SPACES, _spaces(3, 2, 2, 3), _spaces(1, 3, 3, 2), _spaces(3, 3, 3, 3)],
    ids=["small", "chsh", "3223", "1332", "3333"],
)
def test_ns_lp_equals_the_reference(spaces):
    rng = random.Random(7)
    values = (ZERO, ONE, -ONE, HALF, SQRT2, -SQRT2)
    size = prod(len(space) for space in spaces)
    expression = BellExpression(*spaces, tuple(rng.choice(values) for _ in range(size)))
    problem, reference = _ns_lp(expression), ns_lp(expression)
    assert (problem.c, problem.A, problem.b) == (reference.c, reference.A, reference.b)


def test_expressions_on_equal_spaces_share_one_constraint_matrix():
    other = BellExpression(*CHSH_SPACES, (ONE,) * 16)
    assert _ns_constraints(other.spaces) is _ns_constraints(chsh().spaces)
    first, second = _ns_lp(chsh()), _ns_lp(other)
    assert all(a is b for a, b in zip(first.A, second.A)) and first.b is second.b


# -- shared objects under threads ----------------------------------------------


def _work(boxes, expressions):
    results = []
    for box in boxes:
        d = max_local_content(box)
        problem = content_lp_problem(box, enumerate_local_vertices(box.spaces))
        locality, _ = check_locality(decomposition_to_model(d))
        results.append(
            (
                d.local_content,
                d.vertices,
                d.weights,
                verify_decomposition(d, box).ok,
                check_certificate(problem, d.certificate),
                locality,
            )
        )
    results.extend(ns_bound(expression) for expression in expressions)
    return results


def test_concurrent_builds_match_the_serial_results():
    # Every box and expression is on CHSH_SPACES, so all threads share one
    # vertex tuple and one constraint matrix, built while they race.
    rng = random.Random(11)
    boxes = [table1_box(), pr_box(), noise_box()] + [random_ns_behavior(rng, CHSH_SPACES) for _ in range(2)]
    coefficients = tuple(rng.choice((ZERO, ONE, -ONE, SQRT2)) for _ in range(16))
    expressions = [chsh(), BellExpression(*CHSH_SPACES, coefficients)]
    serial = _work(boxes, expressions)
    assert all(ok and certified and local for *_, ok, certified, local in serial[: len(boxes)])

    _local_vertices.cache_clear()
    _ns_constraints.cache_clear()
    workers = 8
    results = []
    barrier = threading.Barrier(workers)

    def run():
        barrier.wait(timeout=30)
        results.append(_work(boxes, expressions))

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
