"""Hidden-variable models over bipartite behaviors.

A model attaches to each value pair (u, v) of the hidden variables a
weight P(u,v) and a kernel behavior P(x,y|a,b,u,v).  The pair is kept
as a joint label with arbitrary correlation; independence of u and v is
deliberately not assumed.

Locality here means every positive-weight kernel is no-signalling, so
conditioning on the hidden pair could never be used to signal.
Triviality means the hidden pair reveals nothing: every positive-weight
kernel has the same one-side marginals as the reconstructed behavior.

Every check validates its input through :func:`require_valid_model`; as
for boxes, the report is computed once and kept on the model, and so are
the locality verdict of :func:`check_locality` and the reconstruction, so
:func:`check_triviality` and :func:`nontrivial_weight` mix the kernels once
between them and then compare only the ints of the boxes' marginal tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .boxes import (
    Behavior,
    BehaviorReport,
    JointTable,
    LabelSet,
    NsWitness,
    Side,
    _marginal_entry,
    _marginal_table,
    _remembered,
    is_no_signalling,
    marginal,
    mix,
    require_valid_behavior,
    validate_behavior,
)
from .errors import InvalidDistribution, InvalidModel, NotLocal, SizeBudgetExceeded, SpaceMismatch
from .frozen import Frozen
from .scalar import ONE, ZERO, Scalar, _reduced, as_scalar, format_scalar

Pair = tuple[str, str]

# Most cells |A||B||U||V||X| of the joint table that first_mover_joint will
# build, over every u label against every v label: for a model with n hidden
# pairs of distinct labels it grows as n**2.  Past it the model is refused
# before the table is built.  On the CHSH spaces 181 pairs of distinct
# labels (262 088 cells) are the most within it, and `hvlab model
# first-mover` on them takes 0.47-0.49 s at 41 MB peak RSS, about half of
# it building the table and half the product check, with Python 3.11 on a
# shared 2-core host.  The benchmark's models hold 5040 cells.
FIRST_MOVER_CELL_BUDGET = 2**18


class HiddenVariableModel(Frozen):
    """Weights P(u,v) plus one kernel behavior per hidden pair."""

    pairs: tuple[Pair, ...]
    weights: tuple[Scalar, ...]
    kernels: tuple[Behavior, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple((str(u), str(v)) for u, v in self.pairs))
        object.__setattr__(self, "weights", tuple(as_scalar(w) for w in self.weights))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.pairs:
            raise InvalidModel("model needs at least one hidden pair")
        if len(self.pairs) != len(self.weights) or len(self.pairs) != len(self.kernels):
            raise InvalidModel("pairs, weights and kernels must align")
        if len(set(self.pairs)) != len(self.pairs):
            raise InvalidModel("duplicate hidden pairs")
        spaces = self.kernels[0].spaces
        for kernel in self.kernels:
            if kernel.spaces != spaces:
                raise InvalidModel("kernels must share one set of spaces")

    @property
    def spaces(self) -> tuple[LabelSet, LabelSet, LabelSet, LabelSet]:
        return self.kernels[0].spaces

    def items(self):
        return zip(self.pairs, self.weights, self.kernels)


class ModelReport(Frozen):
    """Validation outcome for a model's weights and kernels."""

    negative_weights: tuple[tuple[Pair, Scalar], ...]
    weight_total: Scalar
    invalid_kernels: tuple[tuple[Pair, BehaviorReport], ...]

    @property
    def ok(self) -> bool:
        return not self.negative_weights and self.weight_total == ONE and not self.invalid_kernels

    def summary(self) -> str:
        if self.ok:
            return "valid"
        parts = []
        for pair, weight in self.negative_weights:
            parts.append(f"negative weight {format_scalar(weight)} at pair {pair}")
        if self.weight_total != ONE:
            parts.append(f"weights sum to {format_scalar(self.weight_total)}, expected 1")
        for pair, report in self.invalid_kernels:
            parts.append(f"kernel at pair {pair}: {report.summary()}")
        return "; ".join(parts)


def validate_model(model: HiddenVariableModel) -> ModelReport:
    return _remembered(model, _model_report)


def _model_report(model: HiddenVariableModel) -> ModelReport:
    negatives = []
    total = ZERO
    bad_kernels = []
    for pair, weight, kernel in model.items():
        if weight.sign() < 0:
            negatives.append((pair, weight))
        total = total + weight
        report = validate_behavior(kernel)
        if not report.ok:
            bad_kernels.append((pair, report))
    return ModelReport(tuple(negatives), total, tuple(bad_kernels))


def require_valid_model(model: HiddenVariableModel | ExtendedModel) -> None:
    """Raise InvalidModel, listing the problems, unless the model is valid."""
    if isinstance(model, ExtendedModel):
        problems = validate_extended_model(model)
    else:
        report = validate_model(model)
        problems = [] if report.ok else [report.summary()]
    if problems:
        raise InvalidModel("; ".join(problems))


def reconstruct(model: HiddenVariableModel) -> Behavior:
    """Observed behavior: the weight mixture of the kernels, mixed once
    and kept on the model."""
    return _remembered(model, lambda model: mix(zip(model.weights, model.kernels)), "_reconstruction")


class LocalityWitness(Frozen):
    """A positive-weight pair whose kernel signals."""

    pair: Pair
    witness: NsWitness

    def describe(self) -> str:
        return f"pair ({self.pair[0]},{self.pair[1]}): {self.witness.describe()}"


def check_locality(model: HiddenVariableModel) -> tuple[bool, LocalityWitness | None]:
    """True iff every kernel carrying weight is no-signalling.

    Zero-weight pairs are exempt: they are unobservable and the
    conditional distributions are undefined there.  The verdict is kept
    on the model, as its validity report is: :func:`guessing_probability`
    asks for it once per setting.
    """
    return _remembered(model, _locality, "_locality")


def _locality(model: HiddenVariableModel) -> tuple[bool, LocalityWitness | None]:
    require_valid_model(model)
    for pair, weight, kernel in model.items():
        if weight.sign() <= 0:
            continue
        ok, ns_witness = is_no_signalling(kernel)
        if not ok:
            return False, LocalityWitness(pair, ns_witness)
    return True, None


class TrivialityWitness(Frozen):
    """A positive-weight pair whose kernel marginal differs from the
    reference behavior's marginal."""

    pair: Pair
    side: Side
    setting: str
    counterpart: str
    outcome: str
    kernel_value: Scalar
    model_value: Scalar

    def __post_init__(self) -> None:
        if self.kernel_value == self.model_value:
            raise ValueError("witness values must differ")

    def describe(self) -> str:
        return (
            f"pair ({self.pair[0]},{self.pair[1]}), {self.side} setting {self.setting}, "
            f"outcome {self.outcome}: kernel marginal {format_scalar(self.kernel_value)} != "
            f"behavior marginal {format_scalar(self.model_value)}"
        )


def _pair_triviality_witness(pair: Pair, kernel: Behavior, reference: Behavior) -> TrivialityWitness | None:
    """First entry, in table order, where the kernel's marginal table differs
    from the reference's (over its own denominator: cross-multiplied), or None."""
    (kps, kqs, kd), (rps, rqs, rd) = _marginal_table(kernel), _marginal_table(reference)
    for k, (kp, kq, rp, rq) in enumerate(zip(kps, kqs, rps, rqs)):
        if kp * rd != rp * kd or kq * rd != rq * kd:
            where = _marginal_entry(kernel.spaces, k)
            return TrivialityWitness(pair, *where, _reduced(kp, kq, kd), _reduced(rp, rq, rd))
    return None


def check_triviality(
    model: HiddenVariableModel, against: Behavior | None = None
) -> tuple[bool, TrivialityWitness | None]:
    """Trivial iff no positive-weight kernel betrays anything about the
    outcomes beyond the behavior's own marginals.

    The reference defaults to the reconstructed behavior; pass
    ``against`` to compare with an externally specified valid box with
    the model's spaces instead.
    """
    require_valid_model(model)
    if against is not None:
        if against.spaces != model.spaces:
            raise SpaceMismatch("triviality reference and model spaces differ")
        require_valid_behavior(against)
    reference = against if against is not None else reconstruct(model)
    witness = next((witness for _, witness in _nontrivial_pairs(model, reference)), None)
    return witness is None, witness


def nontrivial_weight(model: HiddenVariableModel) -> Scalar:
    """Total weight of pairs whose kernel fails the per-pair triviality
    test against the reconstructed behavior."""
    require_valid_model(model)
    return sum((weight for weight, _ in _nontrivial_pairs(model, reconstruct(model))), ZERO)


def _nontrivial_pairs(model: HiddenVariableModel, reference: Behavior) -> Iterator[tuple[Scalar, TrivialityWitness]]:
    """Each positive-weight pair whose kernel's marginals differ from the
    reference's, in model order, as its weight and first witness."""
    for pair, weight, kernel in model.items():
        if weight.sign() > 0:
            witness = _pair_triviality_witness(pair, kernel, reference)
            if witness is not None:
                yield weight, witness


def guessing_probability(model: HiddenVariableModel, side: Side, setting: str) -> Scalar:
    """Success probability of the best outcome guess given the hidden pair.

    Only defined for local models, where the one-side kernel marginal
    does not depend on the counterpart's setting.
    """
    local, witness = check_locality(model)
    if not local:
        raise NotLocal(f"guessing probability undefined: {witness.describe()}")
    sa, sb, _, _ = model.spaces
    pair_settings = (setting, sb.labels[0]) if side == "alice" else (sa.labels[0], setting)
    total = ZERO
    for _, weight, kernel in model.items():
        if weight.sign() <= 0:
            continue
        dist = marginal(kernel, side, pair_settings)
        best = max(dist.values())
        total = total + weight * best
    return total


class WExtension(Frozen):
    """Per-pair extra variable w with weights P(w|u,v) and one kernel per w."""

    values: LabelSet
    weights: tuple[Scalar, ...]
    kernels: tuple[Behavior, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(as_scalar(w) for w in self.weights))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.values) != len(self.weights) or len(self.values) != len(self.kernels):
            raise InvalidModel("w values, weights and kernels must align")


class ExtendedModel(Frozen):
    """Model skeleton plus, per pair, an extra variable that may break
    no-signalling at its own level."""

    pairs: tuple[Pair, ...]
    weights: tuple[Scalar, ...]
    extensions: tuple[WExtension, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple((str(u), str(v)) for u, v in self.pairs))
        object.__setattr__(self, "weights", tuple(as_scalar(w) for w in self.weights))
        object.__setattr__(self, "extensions", tuple(self.extensions))
        if not self.pairs:
            raise InvalidModel("model needs at least one hidden pair")
        if len(self.pairs) != len(self.weights) or len(self.pairs) != len(self.extensions):
            raise InvalidModel("pairs, weights and extensions must align")
        if len(set(self.pairs)) != len(self.pairs):
            raise InvalidModel("duplicate hidden pairs")
        spaces = self.extensions[0].kernels[0].spaces
        for extension in self.extensions:
            for kernel in extension.kernels:
                if kernel.spaces != spaces:
                    raise InvalidModel("kernels must share one set of spaces")

    @property
    def spaces(self) -> tuple[LabelSet, LabelSet, LabelSet, LabelSet]:
        return self.extensions[0].kernels[0].spaces


def validate_extended_model(model: ExtendedModel) -> list[str]:
    """List of problems; empty means valid."""
    return list(_remembered(model, _extended_model_problems))


def _extended_model_problems(model: ExtendedModel) -> tuple[str, ...]:
    problems: list[str] = []
    total = ZERO
    for pair, weight in zip(model.pairs, model.weights):
        if weight.sign() < 0:
            problems.append(f"negative weight {format_scalar(weight)} at pair {pair}")
        total = total + weight
    if total != ONE:
        problems.append(f"pair weights sum to {format_scalar(total)}, expected 1")
    for pair, extension in zip(model.pairs, model.extensions):
        w_total = ZERO
        for w, weight in zip(extension.values, extension.weights):
            if weight.sign() < 0:
                problems.append(f"negative weight {format_scalar(weight)} for w={w} at pair {pair}")
            w_total = w_total + weight
        if w_total != ONE:
            problems.append(f"w weights at pair {pair} sum to {format_scalar(w_total)}, expected 1")
        for w, kernel in zip(extension.values, extension.kernels):
            report = validate_behavior(kernel)
            if not report.ok:
                problems.append(f"kernel at pair {pair}, w={w}: {report.summary()}")
    return tuple(problems)


def marginalize_nonlocal(model: ExtendedModel) -> HiddenVariableModel:
    """Fold the extra variable into each pair's kernel by averaging.

    The per-w kernels may individually signal; only the averaged
    pair-level kernels enter the resulting model.
    """
    require_valid_model(model)
    kernels = tuple(
        mix(zip(extension.weights, extension.kernels)) for extension in model.extensions
    )
    return HiddenVariableModel(model.pairs, model.weights, kernels)


def uniform_distribution(labels: LabelSet | Sequence[str]) -> dict[str, Scalar]:
    labels = tuple(labels)
    weight = ONE / len(labels)
    return {label: weight for label in labels}


def _check_distribution(
    dist: Mapping[str, Scalar | int | Fraction], space: LabelSet, what: str
) -> dict[str, Scalar]:
    cleaned: dict[str, Scalar] = {}
    if set(dist.keys()) != set(space.labels):
        raise InvalidDistribution(
            f"{what} must assign a weight to exactly the settings {space.labels}"
        )
    total = ZERO
    for label in space:
        value = as_scalar(dist[label])
        if value.sign() < 0:
            raise InvalidDistribution(f"{what} has negative weight at {label!r}")
        cleaned[label] = value
        total = total + value
    if total != ONE:
        raise InvalidDistribution(f"{what} sums to {format_scalar(total)}, expected 1")
    return cleaned


def first_mover_joint(
    model: HiddenVariableModel,
    p_a: Mapping[str, Scalar | int | Fraction],
    p_b: Mapping[str, Scalar | int | Fraction],
) -> JointTable:
    """Joint distribution of (A, B, U, V, X) when Alice measures first.

    P(a,b,u,v,x) = pA(a) * pB(b) * P(u,v) * P(x|a,b,u,v), with the last
    factor read off the kernel's Alice marginal.  When the model is
    local that factor is independent of b, which is exactly what the
    product check against {B} detects.  Models whose table would pass
    ``FIRST_MOVER_CELL_BUDGET`` cells are refused before it is built.
    """
    sa, sb, ox, _ = model.spaces
    u_labels = tuple(dict.fromkeys(u for u, _ in model.pairs))
    v_labels = tuple(dict.fromkeys(v for _, v in model.pairs))
    cells = len(sa) * len(sb) * len(u_labels) * len(v_labels) * len(ox)
    if cells > FIRST_MOVER_CELL_BUDGET:
        raise SizeBudgetExceeded(
            f"the first-mover joint table's {cells} cells exceed the budget of {FIRST_MOVER_CELL_BUDGET} cells"
        )
    require_valid_model(model)
    dist_a = _check_distribution(p_a, sa, "setting distribution for A")
    dist_b = _check_distribution(p_b, sb, "setting distribution for B")
    by_pair = {pair: (weight, kernel) for pair, weight, kernel in model.items()}

    def probability(a: str, b: str, u: str, v: str, x: str) -> Scalar:
        entry = by_pair.get((u, v))
        if entry is None:
            return ZERO
        weight, kernel = entry
        return dist_a[a] * dist_b[b] * weight * marginal(kernel, "alice", (a, b))[x]

    variables = (
        ("A", sa),
        ("B", sb),
        ("U", LabelSet(u_labels)),
        ("V", LabelSet(v_labels)),
        ("X", ox),
    )
    return JointTable.from_function(variables, probability)
