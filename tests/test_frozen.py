"""The immutable value classes: construction, immutability, equality,
hash and repr, as a frozen dataclass would give them."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import hvlab
from helpers import CHSH_SPACES
from hvlab.bell import BellExpression, DeterministicStrategy, chsh, local_bound
from hvlab.boxes import (
    Behavior,
    BehaviorReport,
    JointTable,
    LabelSet,
    NsWitness,
    ProductWitness,
    Tensor,
    check_product,
    is_no_signalling,
    validate_behavior,
)
from hvlab.catalog import CatalogEntry, appendix_a_model, entries, signalling_box, table1_box
from hvlab.decompose import (
    CheckResult,
    DecompositionReport,
    LocalDecomposition,
    max_local_content,
    verify_decomposition,
)
from hvlab.errors import InvalidModel
from hvlab.frozen import Frozen
from hvlab.hvmodel import (
    ExtendedModel,
    HiddenVariableModel,
    LocalityWitness,
    ModelReport,
    TrivialityWitness,
    WExtension,
    check_locality,
    check_triviality,
    validate_model,
)
from hvlab.scalar import HALF, ONE, ZERO, Scalar
from hvlab.simplex import UNBOUNDED, LpProblem, LpSolution, Matrix, solve_lp

BITS = LabelSet(("0", "1"))


def _correlated_bits() -> JointTable:
    return JointTable((("X", BITS), ("Y", BITS)), (HALF, ZERO, ZERO, HALF))


def _extension() -> WExtension:
    return WExtension(BITS, (HALF, HALF), (table1_box(), table1_box()))


def _lp() -> LpProblem:
    return LpProblem((ONE, ONE), [[ONE, ONE]], (HALF,))


# Each public value class: an instance and its fields in order.
INSTANCES = {
    LabelSet: (lambda: BITS, ("labels",)),
    Tensor: (
        lambda: Tensor(*table1_box().spaces, table1_box().table),
        ("settings_a", "settings_b", "outcomes_x", "outcomes_y", "table"),
    ),
    Behavior: (table1_box, ("settings_a", "settings_b", "outcomes_x", "outcomes_y", "table")),
    BellExpression: (chsh, ("settings_a", "settings_b", "outcomes_x", "outcomes_y", "table")),
    BehaviorReport: (lambda: validate_behavior(table1_box()), ("negative_cells", "bad_normalizations")),
    NsWitness: (
        lambda: is_no_signalling(signalling_box())[1],
        ("side", "setting", "counterpart_reference", "counterpart_other", "outcome", "value_reference", "value_other"),
    ),
    JointTable: (_correlated_bits, ("variables", "table")),
    ProductWitness: (
        lambda: check_product(_correlated_bits(), ["X"], ["Y"])[1],
        ("assignment", "joint_value", "left_value", "right_value"),
    ),
    DeterministicStrategy: (lambda: local_bound(chsh())[1], ("outputs_a", "outputs_b")),
    CatalogEntry: (lambda: entries()["pr-box"], ("key", "kind", "value", "note")),
    CheckResult: (lambda: CheckResult("weights_nonnegative", False, "-1/2"), ("name", "ok", "detail")),
    DecompositionReport: (
        lambda: verify_decomposition(max_local_content(table1_box()), table1_box()),
        ("checks",),
    ),
    HiddenVariableModel: (appendix_a_model, ("pairs", "weights", "kernels")),
    ModelReport: (
        lambda: validate_model(appendix_a_model()),
        ("negative_weights", "weight_total", "invalid_kernels"),
    ),
    LocalityWitness: (
        lambda: check_locality(HiddenVariableModel((("u", "v"),), (ONE,), (signalling_box(),)))[1],
        ("pair", "witness"),
    ),
    TrivialityWitness: (
        lambda: check_triviality(appendix_a_model())[1],
        ("pair", "side", "setting", "counterpart", "outcome", "kernel_value", "model_value"),
    ),
    WExtension: (_extension, ("values", "weights", "kernels")),
    ExtendedModel: (
        lambda: ExtendedModel((("u", "v"),), (ONE,), (_extension(),)),
        ("pairs", "weights", "extensions"),
    ),
    Matrix: (lambda: Matrix.from_rows(((ONE, Scalar(2)), (ZERO, -ONE)), 2), ("height", "columns")),
    LpProblem: (_lp, ("c", "A", "b")),
    LpSolution: (lambda: solve_lp(_lp()), ("status", "q", "value", "dual")),
}


def _values(obj, fields):
    return [getattr(obj, name) for name in fields]


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)
def test_value_class_behaves_like_a_frozen_record(cls):
    make, fields = INSTANCES[cls]
    obj = make()
    assert type(obj) is cls
    values = _values(obj, fields)

    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert _values(obj, fields) == values

    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    assert positional == obj and keyword == obj and not (keyword != obj)
    assert hash(positional) == hash(obj) == hash(keyword)
    assert len({obj, positional, keyword}) == 1
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"

    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values[:1], **{fields[0]: values[0]}, **dict(zip(fields[1:], values[1:])))


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)
def test_value_copies_and_pickles_are_equal_and_immutable(cls):
    obj = INSTANCES[cls][0]()
    for duplicate in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert duplicate == obj and hash(duplicate) == hash(obj)
        with pytest.raises(AttributeError):
            duplicate.note = 1


# Fields that contradict each other, each with the error and message that
# the constructor refuses them with.
_REFUSED_FIELDS = {
    "label-set-empty": (lambda: LabelSet(()), ValueError, "label set must not be empty"),
    "label-empty": (lambda: LabelSet(("0", "")), ValueError, "labels must be non-empty strings, got ''"),
    "label-not-str": (lambda: LabelSet(("0", 1)), ValueError, "labels must be non-empty strings, got 1"),
    "ns-witness-equal-values": (
        lambda: NsWitness("alice", "0", "1", "3", "+1", HALF, HALF),
        ValueError,
        "witness values must differ",
    ),
    "product-witness-holds": (
        lambda: ProductWitness((("X", "0"), ("Y", "0")), HALF * HALF, HALF, HALF),
        ValueError,
        "witness must violate the product identity",
    ),
    "triviality-witness-equal-values": (
        lambda: TrivialityWitness(("u", "v"), "alice", "0", "1", "+1", HALF, HALF),
        ValueError,
        "witness values must differ",
    ),
    "w-extension-weight-short": (
        lambda: WExtension(BITS, (ONE,), (table1_box(), table1_box())),
        InvalidModel,
        "w values, weights and kernels must align",
    ),
    "w-extension-kernel-short": (
        lambda: WExtension(BITS, (HALF, HALF), (table1_box(),)),
        InvalidModel,
        "w values, weights and kernels must align",
    ),
}


@pytest.mark.parametrize("build, error, message", _REFUSED_FIELDS.values(), ids=_REFUSED_FIELDS)
def test_a_value_class_refuses_contradictory_fields(build, error, message):
    with pytest.raises(error) as refusal:
        build()
    assert str(refusal.value) == message


def test_tensor_kinds_with_one_table_are_not_equal():
    box = table1_box()
    expression = BellExpression(*box.spaces, box.table)
    tensor = Tensor(*box.spaces, box.table)
    assert box != expression and expression != box
    assert box != tensor and tensor != expression
    assert expression == BellExpression(*box.spaces, box.table)


def test_each_field_takes_part_in_equality_and_hash():
    base = CheckResult("name", True, "detail")
    for other in (
        CheckResult("other", True, "detail"),
        CheckResult("name", False, "detail"),
        CheckResult("name", True, ""),
    ):
        assert other != base
        assert hash(other) != hash(base)
    solution = LpSolution("optimal", (ONE,), ONE, (ONE,))
    for other in (
        LpSolution("unbounded", (ONE,), ONE, (ONE,)),
        LpSolution("optimal", (HALF,), ONE, (ONE,)),
        LpSolution("optimal", (ONE,), HALF, (ONE,)),
        LpSolution("optimal", (ONE,), ONE, (HALF,)),
    ):
        assert other != solution
        assert hash(other) != hash(solution)


def test_defaults_fill_trailing_fields():
    assert CheckResult("name", True).detail == ""
    assert CheckResult(ok=True, name="name") == CheckResult("name", True, "")
    assert LpSolution(UNBOUNDED) == LpSolution(UNBOUNDED, None, None, None)
    assert LpSolution(UNBOUNDED).q is None and LpSolution(status=UNBOUNDED).dual is None
    with pytest.raises(TypeError):
        CheckResult(ok=True)
    with pytest.raises(TypeError):
        LpSolution()


def test_post_init_runs_for_every_form_of_call():
    assert LabelSet(labels=["a", "b"]).labels == ("a", "b")
    with pytest.raises(ValueError):
        LabelSet(labels=["a", "a"])
    with pytest.raises(ValueError):
        Behavior(*CHSH_SPACES, table=(ONE,))
    with pytest.raises(TypeError):
        Tensor(*CHSH_SPACES, [0] * 16)
    assert HiddenVariableModel(pairs=[("u", "v")], weights=[1], kernels=[table1_box()]).weights == (ONE,)


def test_a_value_is_not_equal_to_a_tuple_of_its_fields():
    assert BITS != (("0", "1"),)
    assert BITS != ("0", "1")
    assert DeterministicStrategy(("+1",), ("-1",)) != (("+1",), ("-1",))
    assert CatalogEntry("k", "scalar", Scalar(1), "n") != CheckResult("k", True, "n")


def _hvlab_classes():
    for info in pkgutil.iter_modules(hvlab.__path__, "hvlab."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_value_class_is_covered_here():
    assert set(INSTANCES) == {cls for cls in _hvlab_classes() if issubclass(cls, Frozen) and cls is not Frozen}


def test_only_local_decomposition_is_a_dataclass():
    # dataclasses generates each class's methods with exec when its module
    # is imported; the other value classes share one base class instead.
    assert [cls.__name__ for cls in _hvlab_classes() if dataclasses.is_dataclass(cls)] == ["LocalDecomposition"]
    decomposition = max_local_content(table1_box())
    moved = dataclasses.replace(decomposition, local_content=ONE)
    assert isinstance(moved, LocalDecomposition) and moved.local_content == ONE
    assert moved.vertices == decomposition.vertices
