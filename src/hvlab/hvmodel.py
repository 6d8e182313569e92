"""Hidden-variable models over bipartite behaviors.

A model attaches to each value pair (u, v) of the hidden variables a
weight P(u,v) and a kernel behavior P(x,y|a,b,u,v).  The pair is kept
as a joint label with arbitrary correlation; independence of u and v is
deliberately not assumed.

Locality here means every positive-weight kernel is no-signalling, so
conditioning on the hidden pair could never be used to signal.
Triviality means the hidden pair reveals nothing: every positive-weight
kernel has the same one-side marginals as the reconstructed behavior.

Both kinds of model, plain and extended (whose pairs carry an extra
variable w), run one structure check when built (:func:`_check_structure`)
and have one validity report, a :class:`~hvlab.boxes.ValidityReport`
listing their problems as strings (:func:`validate_model`), the shape of a
box's report.  Every check validates its input through
:func:`require_valid_model`, which raises with that list, and a model file
is validated where :mod:`hvlab.formats` reads it.  Beyond validation only
:func:`marginalize_nonlocal` takes an extended model: every check reads
the pair kernels and refuses an extended model (:func:`_require_plain`)
rather than fold it unasked, since a w-level kernel may signal.  As for
boxes, the report is computed once and kept on the model, and so are the
locality verdict of :func:`check_locality` and the reconstruction, so
:func:`check_triviality` and :func:`nontrivial_weight` mix the kernels once
between them and then compare only the ints of the boxes' marginal tables.
Each weight vector (a model's pair weights, an extension's w weights, a
setting distribution) is checked in ints over its common denominator by
``boxes._negatives_and_total``, and each check keeps its own message.
:func:`first_mover_joint` fills its table from the kernels' marginal tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .boxes import (
    Behavior,
    JointTable,
    LabelSet,
    NsWitness,
    Side,
    ValidityReport,
    _marginal_entry,
    _marginal_table,
    _negatives_and_total,
    _remembered,
    _require_side,
    is_no_signalling,
    marginal,
    mix,
    require_valid_behavior,
    validate_behavior,
)
from .errors import InvalidDistribution, InvalidModel, NotLocal, SizeBudgetExceeded, SpaceMismatch
from .frozen import Frozen
from .scalar import ONE, ZERO, Scalar, _common_denominator, _reduced, as_scalar, format_scalar

Pair = tuple[str, str]

# Most cells |A||B||U||V||X| of the joint table that first_mover_joint will
# build, over every u label against every v label: for a model with n hidden
# pairs of distinct labels it grows as n**2.  Past it the model is refused
# before the table is built.  On the CHSH spaces 181 pairs of distinct
# labels (262 088 cells) are the most within it, and `hvlab model
# first-mover` on them takes 0.49-0.61 s at 40 MB peak RSS, about 0.1 s of
# it building the table and 0.23 s the product check, with Python 3.11 on a
# shared 2-core host.  The benchmark's models hold 5040 cells.
FIRST_MOVER_CELL_BUDGET = 2**18


class HiddenVariableModel(Frozen):
    """Weights P(u,v) plus one kernel behavior per hidden pair."""

    pairs: tuple[Pair, ...]
    weights: tuple[Scalar, ...]
    kernels: tuple[Behavior, ...]

    def __post_init__(self) -> None:
        _check_structure(self, "kernels", lambda: self.kernels)

    @property
    def spaces(self) -> tuple[LabelSet, LabelSet, LabelSet, LabelSet]:
        return self.kernels[0].spaces

    def items(self):
        return zip(self.pairs, self.weights, self.kernels)


def _check_structure(
    model: HiddenVariableModel | ExtendedModel, parts: str, kernels: Callable[[], Iterable[Behavior]]
) -> None:
    """The structure check of both kinds of model, run by their constructors:
    the pairs become string pairs, the weights Scalars and the field ``parts``
    (kernels or extensions) a tuple; then there must be at least one pair,
    one weight and one part per pair, no pair twice, and every kernel that
    ``kernels()`` yields must have the model's spaces."""
    object.__setattr__(model, "pairs", tuple((str(u), str(v)) for u, v in model.pairs))
    object.__setattr__(model, "weights", tuple(as_scalar(w) for w in model.weights))
    object.__setattr__(model, parts, tuple(getattr(model, parts)))
    if not model.pairs:
        raise InvalidModel("model needs at least one hidden pair")
    if len(model.pairs) != len(model.weights) or len(model.pairs) != len(getattr(model, parts)):
        raise InvalidModel(f"pairs, weights and {parts} must align")
    if len(set(model.pairs)) != len(model.pairs):
        raise InvalidModel("duplicate hidden pairs")
    spaces = model.spaces
    if any(kernel.spaces != spaces for kernel in kernels()):
        raise InvalidModel("kernels must share one set of spaces")


def validate_model(model: HiddenVariableModel | ExtendedModel) -> ValidityReport:
    """The validity report of a plain or an extended model: the problems of
    its weights and kernels, in the order of :func:`_model_report`, as one
    :class:`~hvlab.boxes.ValidityReport` (a kernel's problems are those of
    its box report, joined by "; "), computed once and kept on the model."""
    return _remembered(model, _model_report)


def _model_report(model: HiddenVariableModel | ExtendedModel) -> ValidityReport:
    """The pair weights' problems, then pair by pair those of its w weights
    (an extended model only) and of each of its kernels."""
    extended = isinstance(model, ExtendedModel)
    negatives, total = _negatives_and_total(*_common_denominator(model.weights))
    problems = [f"negative weight {format_scalar(model.weights[i])} at pair {model.pairs[i]}" for i in negatives]
    if total != ONE:
        problems.append(f"{'pair weights' if extended else 'weights'} sum to {format_scalar(total)}, expected 1")
    for pair, part in zip(model.pairs, model.extensions if extended else model.kernels):
        kernels = [("", part)]
        if extended:
            negatives, w_total = _negatives_and_total(*_common_denominator(part.weights))
            for i in negatives:
                w, weight = part.values.labels[i], part.weights[i]
                problems.append(f"negative weight {format_scalar(weight)} for w={w} at pair {pair}")
            if w_total != ONE:
                problems.append(f"w weights at pair {pair} sum to {format_scalar(w_total)}, expected 1")
            kernels = [(f", w={w}", kernel) for w, kernel in zip(part.values, part.kernels)]
        for where, kernel in kernels:
            report = validate_behavior(kernel)
            if not report.ok:
                problems.append(f"kernel at pair {pair}{where}: {report.summary()}")
    return ValidityReport(tuple(problems))


def require_valid_model(model: HiddenVariableModel | ExtendedModel) -> None:
    """Raise InvalidModel, with the report's problems joined by "; ",
    unless the model, plain or extended, is valid."""
    report = validate_model(model)
    if not report.ok:
        raise InvalidModel(report.summary())


def _require_plain(model: HiddenVariableModel | ExtendedModel) -> None:
    """Refuse an extended model.  The checks of a model read its pair
    kernels, and an extended model's w-level kernels may signal, which
    makes it unphysical; folding them is left to the caller."""
    if isinstance(model, ExtendedModel):
        raise InvalidModel("extended model: fold its w_extension into pair kernels first with marginalize_nonlocal")


def reconstruct(model: HiddenVariableModel) -> Behavior:
    """Observed behavior: the weight mixture of the kernels, mixed once
    and kept on the model.  An extended model is refused, and so is an
    invalid one, with its report, before anything is mixed."""
    _require_plain(model)
    return _remembered(model, _reconstruction, "_reconstruction")


def _reconstruction(model: HiddenVariableModel) -> Behavior:
    require_valid_model(model)
    return mix(zip(model.weights, model.kernels))


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
    asks for it once per setting.  An extended model is refused.
    """
    _require_plain(model)
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
    the model's spaces instead.  An extended model is refused.
    """
    _require_plain(model)
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
    test against the reconstructed behavior.  An extended model is refused."""
    _require_plain(model)
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
    does not depend on the counterpart's setting.  A side other than
    "alice" or "bob" is refused first, with ``ValueError``, then an
    extended model.
    """
    _require_side(side)
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
        _check_structure(self, "extensions", lambda: (k for extension in self.extensions for k in extension.kernels))

    @property
    def spaces(self) -> tuple[LabelSet, LabelSet, LabelSet, LabelSet]:
        return self.extensions[0].kernels[0].spaces


def marginalize_nonlocal(model: HiddenVariableModel | ExtendedModel) -> HiddenVariableModel:
    """Fold the extra variable into each pair's kernel by averaging.

    The per-w kernels may individually signal; only the averaged
    pair-level kernels enter the resulting model.  A valid plain model is
    returned unchanged, so the result of either kind is a plain model.
    """
    require_valid_model(model)
    if isinstance(model, HiddenVariableModel):
        return model
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
    if set(dist.keys()) != set(space.labels):
        raise InvalidDistribution(
            f"{what} must assign a weight to exactly the settings {space.labels}"
        )
    values: list[Scalar] = []
    try:
        for label in space:
            values.append(as_scalar(dist[label]))
    finally:
        # The values are read in space order, and a negative one is refused
        # before a later one that cannot be read.
        negatives, total = _negatives_and_total(*_common_denominator(values))
        if negatives:
            raise InvalidDistribution(f"{what} has negative weight at {space.labels[negatives[0]]!r}")
    if total != ONE:
        raise InvalidDistribution(f"{what} sums to {format_scalar(total)}, expected 1")
    return dict(zip(space.labels, values))


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

    The flat table starts as zeros; each hidden pair of nonzero weight
    fills its cells from its kernel's marginal table, one run of |X|
    entries per (a, b), each times pA(a)*pB(b)*P(u,v) in ints.  An
    extended model is refused first.
    """
    _require_plain(model)
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
    setting_weights = [dist_a[a] * dist_b[b] for a in sa for b in sb]
    u_index = {u: i for i, u in enumerate(u_labels)}
    v_index = {v: i for i, v in enumerate(v_labels)}
    nu, nv, nx = len(u_labels), len(v_labels), len(ox)
    table = [ZERO] * cells
    for (u, v), weight, kernel in model.items():
        if weight.is_zero():
            continue
        mp, mq, den = _marginal_table(kernel)
        for ab, setting_weight in enumerate(setting_weights):
            # (fp + fq*sqrt2)/fd times the marginal entry (p + q*sqrt2)/den.
            fp, fq, fd = (setting_weight * weight)._v
            cell, entry = ((ab * nu + u_index[u]) * nv + v_index[v]) * nx, ab * nx
            for ix, (p, q) in enumerate(zip(mp[entry : entry + nx], mq[entry : entry + nx])):
                if p or q:
                    table[cell + ix] = _reduced(fp * p + 2 * fq * q, fp * q + fq * p, fd * den)
    variables = (
        ("A", sa),
        ("B", sb),
        ("U", LabelSet(u_labels)),
        ("V", LabelSet(v_labels)),
        ("X", ox),
    )
    return JointTable(variables, tuple(table))
