"""Exact LP witnesses pinned to the values the solver returns.

The simplex skips terms with a zero factor; that must change no pivot, so
the primal vector, the duals and the decomposition support below stay
exactly as recorded under the current pivoting rule (Dantzig's entering
rule with Bland's as its guard).  A skip that altered pivot order would
still give the same optimum but a different vertex or dual vector.  The
no-signalling LP is pinned as hvlab builds it, in cell coordinates with no
row for a cell that is a coordinate or restates q >= 0; ``ns_bound`` must
still give the values first recorded from the equality-pair LP it replaced.
"""

import random
from fractions import Fraction

from helpers import random_ns_behavior
from hvlab.bell import BellExpression, _ns_lp, chsh, ns_bound
from hvlab.boxes import Behavior, LabelSet, deterministic_behavior, mix
from hvlab.catalog import table1_box
from hvlab.decompose import content_lp_problem, enumerate_local_vertices, max_local_content
from hvlab.scalar import HALF, ONE, ZERO, Scalar, parse_scalar
from hvlab.simplex import LpSolution, check_certificate, solve_lp

A = "1/4-1/8*sqrt2"


def _scalars(texts):
    return tuple(parse_scalar(t) for t in texts)


def test_table1_content_lp_solution():
    box = table1_box()
    solution = solve_lp(content_lp_problem(box, enumerate_local_vertices(box.spaces)))
    assert solution.q == _scalars([A, A, "0", "0", "0", A, "0", A, A, "0", A, "0", "0", "0", A, A])
    assert solution.dual == _scalars("0 1 1 0 1 0 0 1 0 1 1 0 0 1 1 0".split())
    assert solution.value == parse_scalar("2-1*sqrt2")


def test_chsh_ns_lp_solution():
    problem = _ns_lp(chsh())
    solution = solve_lp(problem)
    assert solution.q == _scalars("0 0 0 1/2 1/2 0 1/2 1/2".split())
    assert solution.dual == _scalars("0 0 2 2 0 2 2 0".split())
    # The LP value plus the expression's constant part, 2.
    assert solution.value == parse_scalar("2")
    assert check_certificate(problem, solution)
    assert ns_bound(chsh()) == parse_scalar("4")


def _box_3322() -> Behavior:
    """3/4 of a PR-type box (x XOR y = a*b mod 2) plus 1/4 of a random
    no-signalling box: non-local, with local content 2593/5040.  (An even
    mixture with this random box is fully local.)"""
    settings, outcomes = LabelSet(("0", "1", "2")), LabelSet(("0", "1"))
    spaces = (settings, settings, outcomes, outcomes)
    pr_type = Behavior.from_function(
        *spaces, lambda a, b, x, y: HALF if int(x) ^ int(y) == int(a) * int(b) % 2 else ZERO
    )
    w = Scalar(Fraction(3, 4))
    return mix([(w, pr_type), (ONE - w, random_ns_behavior(random.Random(7), spaces))])


def test_3322_decomposition_support():
    box = _box_3322()
    decomposition = max_local_content(box)
    vertices = enumerate_local_vertices(box.spaces)
    assert decomposition.local_content == Scalar(Fraction(2593, 5040))
    assert [vertices.index(v) for v in decomposition.vertices] == [0, 2, 29, 30, 32, 35, 46, 47, 53, 60, 61, 62]
    assert decomposition.weights == _scalars(
        "115777/917280 2659/50960 1903/50960 73/10192 643/50960 1709/50960 "
        "25/1764 9419/76440 289/3640 103/26208 22621/917280 1/20384".split()
    )


def test_3322_tampered_primal_fails_certificate():
    box = _box_3322()
    problem = content_lp_problem(box, enumerate_local_vertices(box.spaces))
    solution = solve_lp(problem)
    assert check_certificate(problem, solution)
    t = Scalar(Fraction(1, 10**6))
    raised = list(solution.q)
    raised[0] = raised[0] + t
    # Moving weight from vertex 0 to the unused vertex 3 keeps c.q and the
    # value, so only A.q <= b can reject it.
    moved = list(solution.q)
    moved[0], moved[3] = moved[0] - t, moved[3] + t
    for q in (raised, moved):
        tampered = LpSolution(solution.status, tuple(q), solution.value, solution.dual)
        assert not check_certificate(problem, tampered)


def _box_3333() -> Behavior:
    """(3/10)*sqrt2 of a PR-type box (y - x = a*b mod 3 on the first two
    settings, uniform elsewhere) plus the rest over four vertices that each
    satisfy three of those four relations; local content 1 - (3/10)*sqrt2."""
    labels = LabelSet(("0", "1", "2"))
    spaces = (labels,) * 4
    third, ninth = Scalar(Fraction(1, 3)), Scalar(Fraction(1, 9))

    def pr_cell(a, b, x, y):
        if int(a) < 2 and int(b) < 2:
            return third if (int(y) - int(x)) % 3 == int(a) * int(b) % 3 else ZERO
        return ninth

    w = Scalar(0, Fraction(3, 10))
    components = [(w, Behavior.from_function(*spaces, pr_cell))]
    for twelfths, (xs, ys) in zip((4, 4, 1, 3), (("022", "002"), ("112", "121"), ("210", "122"), ("220", "200"))):
        components.append(((ONE - w) * Scalar(Fraction(twelfths, 12)), deterministic_behavior(*spaces, tuple(xs), tuple(ys))))
    return mix(components)


def test_3333_sqrt2_content_lp_solution():
    box = _box_3333()
    problem = content_lp_problem(box, enumerate_local_vertices(box.spaces))
    solution = solve_lp(problem)
    support = {
        162: "1/18-1/60*sqrt2",
        163: "-1/18+1/20*sqrt2",
        189: "-1/18+1/20*sqrt2",
        191: "1/18-1/60*sqrt2",
        217: "1/18-1/60*sqrt2",
        218: "5/18-3/20*sqrt2",
        339: "-1/36+1/24*sqrt2",
        341: "1/18-1/60*sqrt2",
        367: "1/36-1/120*sqrt2",
        368: "-1/18+1/20*sqrt2",
        394: "1/3-1/6*sqrt2",
        583: "1/18-1/60*sqrt2",
        609: "1/36-1/120*sqrt2",
        666: "1/4-13/120*sqrt2",
        720: "1/30*sqrt2",
    }
    assert solution.q == tuple(parse_scalar(support.get(j, "0")) for j in range(729))
    assert solution.dual == _scalars(
        (
            "0 1 1 1 0 1 1 1 0 0 1 1 1 0 1 1 1 0 0 0 0 0 0 0 0 0 0 "
            "0 1 1 1 0 1 1 1 0 1 0 0 0 1 0 0 0 1 0 0 0 0 0 0 0 0 0 "
            "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
        ).split()
    )
    assert solution.value == parse_scalar("1-3/10*sqrt2")
    assert check_certificate(problem, solution)


def _expression_3322() -> BellExpression:
    settings, outcomes = LabelSet(("0", "1", "2")), LabelSet(("0", "1"))
    coefficients = _scalars(
        "1 -1*sqrt2 -1*sqrt2 1 -1 -1*sqrt2 1*sqrt2 1/2 -1*sqrt2 0 -1*sqrt2 0 "
        "1*sqrt2 -1 -1*sqrt2 1 1 1/2 1*sqrt2 -1*sqrt2 -1*sqrt2 1*sqrt2 1*sqrt2 1/2 "
        "1 1 1/2 1 -1*sqrt2 1*sqrt2 1/2 0 1/2 0 1 -1*sqrt2".split()
    )
    return BellExpression(settings, settings, outcomes, outcomes, coefficients)


def test_3322_sqrt2_ns_lp_solution():
    problem = _ns_lp(_expression_3322())
    solution = solve_lp(problem)
    assert solution.q == _scalars("0 0 0 0 1 1 0 0 0 0 0 0 0 0 0".split())
    dual = ["0"] * 21
    for i, value in {
        1: "3/2-1*sqrt2",
        2: "2-1*sqrt2",
        3: "1/2+1*sqrt2",
        4: "1/2+1*sqrt2",
        5: "2+2*sqrt2",
        9: "-2+2*sqrt2",
        13: "1/2",
        17: "2*sqrt2",
    }.items():
        dual[i] = value
    assert solution.dual == _scalars(dual)
    # The LP value plus the expression's constant part, 4-2*sqrt2.
    assert solution.value == parse_scalar("1/2+4*sqrt2")
    assert check_certificate(problem, solution)
    assert ns_bound(_expression_3322()) == parse_scalar("9/2+2*sqrt2")
