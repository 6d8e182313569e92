"""Command-line front end.

Commands: check, bell, decompose, model, catalog, demo.  Reports go to
stdout (text by default, machine-readable with ``--format json``; every
number in JSON output is an exact scalar string and approximations are
marked ``*_approx``).  Errors go to stderr.

Exit codes: 0 when all checked properties hold, 1 when a checked
property is false (a witness is printed), 2 on malformed input, 141 when
the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction
from typing import Any, Sequence

from . import catalog as catalog_module
from .bell import chsh, evaluate, local_bound, ns_bound
from .boxes import (
    Behavior,
    NsWitness,
    ProductWitness,
    check_product,
    is_no_signalling,
    mix,
)
from .catalog import appendix_a_model, signalling_box, table1_box
from .decompose import (
    content_lp_problem,
    decomposition_to_model,
    enumerate_local_vertices,
    max_local_content,
    verify_decomposition,
)
from .simplex import check_certificate
from .errors import FileFormatError, HvlabError, InvalidBehavior, InvalidModel, NotLocal, SignallingInput
from .formats import (
    SERIALIZERS,
    _load_json,
    behavior_from_dict,
    dump_json,
    load_box,
    load_expression,
    load_model,
    model_from_dict,
    save_model,
    sniff_kind,
)
from .hvmodel import (
    ExtendedModel,
    HiddenVariableModel,
    LocalityWitness,
    TrivialityWitness,
    check_locality,
    check_triviality,
    first_mover_joint,
    guessing_probability,
    marginalize_nonlocal,
    nontrivial_weight,
    reconstruct,
    require_valid_model,
    uniform_distribution,
)
from .scalar import Scalar, format_scalar, parse_scalar

_FIRST_MOVER_BLOCKS = (("B",), ("X", "A", "U", "V"))


def _display(value: Scalar) -> str:
    return f"{format_scalar(value)} (~{value.to_float():.7f})"


def _scalar_fields(report: dict[str, Any], key: str, value: Scalar) -> None:
    report[key] = format_scalar(value)
    approx = value.to_float()
    # Strict JSON has no Infinity; the exact string still carries the value.
    report[f"{key}_approx"] = approx if math.isfinite(approx) else None


def _witness_dict(witness: NsWitness | TrivialityWitness) -> dict[str, Any]:
    """The witness's fields in field order, Scalars as exact strings and tuples as lists."""
    data = {}
    for name in witness._fields:
        value = getattr(witness, name)
        if isinstance(value, Scalar):
            value = format_scalar(value)
        elif isinstance(value, tuple):
            value = list(value)
        data[name] = value
    return data


def _locality_witness_dict(witness: LocalityWitness) -> dict[str, Any]:
    return {**_witness_dict(witness.witness), "pair": list(witness.pair)}


def _product_witness_dict(witness: ProductWitness) -> dict[str, Any]:
    return {
        "assignment": {name: label for name, label in witness.assignment},
        "joint_value": format_scalar(witness.joint_value),
        "left_value": format_scalar(witness.left_value),
        "right_value": format_scalar(witness.right_value),
    }


def _emit(args: argparse.Namespace, lines: Sequence[str], report: dict[str, Any]) -> None:
    # The JSON is printed line by line too: unbuffered (PYTHONUNBUFFERED=1),
    # one large print drops the rest of a partial pipe write without an
    # error, where a later line's write raises BrokenPipeError.  json.dumps
    # escapes every control and non-ASCII character, so "\n" is its only
    # line break and the bytes are those of the one print.
    if args.format == "json":
        lines = dump_json(report).splitlines()
    for line in lines:
        print(line)


# -- check -----------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    data = _load_json(args.path)
    kind = sniff_kind(data)
    if kind == "box":
        return _check_box(args, data)
    if kind == "model":
        return _check_model(args, data)
    raise FileFormatError("check expects a box or model file")


def _invalid(args: argparse.Namespace, lines: list[str], report: dict[str, Any], problems: str) -> int:
    report["valid"] = False
    report["problems"] = problems
    lines += ["valid: false", f"problems: {problems}"]
    _emit(args, lines, report)
    return 2


def _check_box(args: argparse.Namespace, data: Any) -> int:
    if args.against:
        print("error: --against applies to model files, not to a box", file=sys.stderr)
        return 2
    behavior = behavior_from_dict(data, require_valid=False)
    report: dict[str, Any] = {"kind": "box"}
    lines = ["kind: box"]
    try:
        ok, witness = is_no_signalling(behavior)
    except InvalidBehavior as exc:
        return _invalid(args, lines, report, str(exc))
    report["valid"] = True
    lines.append("valid: true")
    report["no_signalling"] = ok
    lines.append(f"no-signalling: {str(ok).lower()}")
    if witness is not None:
        report["witness"] = _witness_dict(witness)
        lines.append(f"witness: {witness.describe()}")
    _emit(args, lines, report)
    return 0 if ok else 1


def _check_model(args: argparse.Namespace, data: Any) -> int:
    model = model_from_dict(data, require_valid=False)
    report: dict[str, Any] = {"kind": "model"}
    lines = ["kind: model"]
    try:
        require_valid_model(model)
    except InvalidModel as exc:
        return _invalid(args, lines, report, str(exc))
    # Valid kernels mixed with valid weights: the folded model is valid too.
    model, folded = _fold(model)
    if folded:
        report["w_extension"] = "folded"
        lines.append("w_extension: folded into pair kernels")
    report["valid"] = True
    lines.append("valid: true")
    local, locality_witness = check_locality(model)
    report["local"] = local
    lines.append(f"local: {str(local).lower()}")
    if locality_witness is not None:
        report["locality_witness"] = _locality_witness_dict(locality_witness)
        lines.append(f"witness: {locality_witness.describe()}")
    against = load_box(args.against) if args.against else None
    trivial, triviality_witness = check_triviality(model, against=against)
    report["trivial"] = trivial
    lines.append(f"trivial: {str(trivial).lower()}")
    if triviality_witness is not None:
        report["triviality_witness"] = _witness_dict(triviality_witness)
        lines.append(f"triviality witness: {triviality_witness.describe()}")
    weight = nontrivial_weight(model)
    _scalar_fields(report, "nontrivial_weight", weight)
    lines.append(f"nontrivial_weight: {format_scalar(weight)}")
    lines.append("note: nontrivial_weight is this tool's quantification of the non-trivial local mass")
    _emit(args, lines, report)
    return 0 if local else 1


# -- bell ------------------------------------------------------------------


def _cmd_bell(args: argparse.Namespace) -> int:
    expression = chsh() if args.expression == "chsh" else load_expression(args.expression)
    behavior = load_box(args.box)
    value = evaluate(expression, behavior)
    bound, strategy = local_bound(expression)
    ns_value = ns_bound(expression)
    report: dict[str, Any] = {}
    _scalar_fields(report, "value", value)
    _scalar_fields(report, "local_bound", bound)
    _scalar_fields(report, "ns_bound", ns_value)
    report["local_bound_strategy"] = {
        "alice_outputs": list(strategy.outputs_a),
        "bob_outputs": list(strategy.outputs_b),
    }
    lines = [
        f"value: {_display(value)}",
        f"local_bound: {_display(bound)}",
        f"ns_bound: {_display(ns_value)}",
    ]
    _emit(args, lines, report)
    return 0


# -- decompose ---------------------------------------------------------------


def _cmd_decompose(args: argparse.Namespace) -> int:
    behavior = load_box(args.box)
    try:
        decomposition = max_local_content(behavior)
    except SignallingInput as exc:
        print("signalling input: no local hidden variable model exists", file=sys.stderr)
        print(f"detail: {exc}", file=sys.stderr)
        return 1
    report: dict[str, Any] = {"label": "maximal local content (decomposition-based)"}
    lines = ["maximal local content (decomposition-based)"]
    _scalar_fields(report, "local_content", decomposition.local_content)
    lines.append(f"local_content: {_display(decomposition.local_content)}")
    report["vertices_used"] = len(decomposition.vertices)
    lines.append(f"vertices_used: {len(decomposition.vertices)}")
    report["residual_used"] = decomposition.residual is not None
    if decomposition.residual is not None:
        remainder = Scalar(1) - decomposition.local_content
        lines.append(f"residual_weight: {_display(remainder)}")
        _scalar_fields(report, "residual_weight", remainder)
    failed = False
    if args.verify:
        verification = verify_decomposition(decomposition, behavior)
        problem = content_lp_problem(behavior, enumerate_local_vertices(behavior.spaces))
        certified = check_certificate(problem, decomposition.certificate)
        report["verification"] = verification.summary()
        report["certificate_verified"] = certified
        lines.append(f"verification: {verification.summary()}")
        lines.append(f"certificate_verified: {str(certified).lower()}")
        failed = not (verification.ok and certified)
    if args.emit_model:
        model = decomposition_to_model(decomposition)
        save_model(model, args.emit_model)
        report["model_written"] = args.emit_model
        lines.append(f"model written: {args.emit_model}")
    _emit(args, lines, report)
    return 1 if failed else 0


# -- model -------------------------------------------------------------------


def _fold(model: HiddenVariableModel | ExtendedModel) -> tuple[HiddenVariableModel, bool]:
    """The model with any w_extension folded into its pair kernels, and
    whether it had one."""
    if isinstance(model, ExtendedModel):
        return marginalize_nonlocal(model), True
    return model, False


def _load_plain_model(path: str) -> HiddenVariableModel:
    return _fold(load_model(path))[0]


def _cmd_model_verify(args: argparse.Namespace) -> int:
    model = _load_plain_model(args.model)
    target = load_box(args.against)
    rebuilt = reconstruct(model)
    report: dict[str, Any] = {}
    lines = []
    if rebuilt.spaces != target.spaces:
        report["matches"] = False
        report["reason"] = "spaces differ"
        lines.append("reconstruction matches: false (spaces differ)")
        _emit(args, lines, report)
        return 1
    mismatch = next(
        (cell for (cell, got), want in zip(rebuilt.cells(), target.table) if got != want),
        None,
    )
    matches = mismatch is None
    report["matches"] = matches
    lines.append(f"reconstruction matches: {str(matches).lower()}")
    if not matches:
        a, b, x, y = mismatch
        got = rebuilt.p(a, b, x, y)
        want = target.p(a, b, x, y)
        report["first_mismatch"] = {
            "cell": [a, b, x, y],
            "reconstructed": format_scalar(got),
            "target": format_scalar(want),
        }
        lines.append(
            f"first mismatch at P({x},{y}|{a},{b}): reconstructed {format_scalar(got)}, "
            f"target {format_scalar(want)}"
        )
    _emit(args, lines, report)
    return 0 if matches else 1


def _cmd_model_guess(args: argparse.Namespace) -> int:
    model = _load_plain_model(args.model)
    side = "alice" if args.side == "A" else "bob"
    settings = model.spaces[0] if side == "alice" else model.spaces[1]
    prefix = "a" if side == "alice" else "b"
    report: dict[str, Any] = {"side": side, "guessing_probability": {}, "guessing_probability_approx": {}}
    lines = [f"side: {side}"]
    for setting in settings:
        value = guessing_probability(model, side, setting)
        report["guessing_probability"][setting] = format_scalar(value)
        report["guessing_probability_approx"][setting] = value.to_float()
        lines.append(f"{prefix}={setting}: {_display(value)}")
    _emit(args, lines, report)
    return 0


def _cmd_model_marginalize(args: argparse.Namespace) -> int:
    model, folded = _fold(load_model(args.model))
    note = "w_extension folded into pair kernels" if folded else "model has no w_extension; written unchanged"
    save_model(model, args.output)
    report = {"model_written": args.output, "note": note}
    _emit(args, [f"model written: {args.output}", note], report)
    return 0


def _cmd_model_first_mover(args: argparse.Namespace) -> int:
    model = _load_plain_model(args.model)
    settings_a, settings_b, _, _ = model.spaces
    joint = first_mover_joint(model, uniform_distribution(settings_a), uniform_distribution(settings_b))
    ok, witness = check_product(joint, *_FIRST_MOVER_BLOCKS)
    report: dict[str, Any] = {"independent": ok}
    lines = [f"B independent of (X,A,U,V): {str(ok).lower()}"]
    if witness is not None:
        report["witness"] = _product_witness_dict(witness)
        lines.append(f"witness: {witness.describe()}")
    _emit(args, lines, report)
    return 0 if ok else 1


# -- catalog -----------------------------------------------------------------


def _cmd_catalog_list(args: argparse.Namespace) -> int:
    listing = catalog_module.entries()
    report = {
        "entries": [
            {"key": entry.key, "kind": entry.kind, "note": entry.note} for entry in listing.values()
        ]
    }
    lines = [f"{entry.key:18} {entry.kind:10} {entry.note}" for entry in listing.values()]
    _emit(args, lines, report)
    return 0


def _cmd_catalog_show(args: argparse.Namespace) -> int:
    listing = catalog_module.entries()
    entry = listing.get(args.key)
    if entry is None:
        print(f"error: unknown catalog key {args.key!r}; try 'hvlab catalog list'", file=sys.stderr)
        return 2
    lines = [f"key: {entry.key}", f"kind: {entry.kind}", f"note: {entry.note}"]
    if entry.kind == "scalar":
        report = {"key": entry.key, "kind": entry.kind, "note": entry.note, "value": format_scalar(entry.value)}
        lines.append(f"value: {_display(entry.value)}")
    else:
        # JSON output is the bare file, so it can be redirected to disk and read back.
        report = SERIALIZERS[entry.kind](entry.value)
        lines.append(dump_json(report).rstrip("\n"))
    _emit(args, lines, report)
    return 0


# -- demo --------------------------------------------------------------------


class _DemoFailure(Exception):
    pass


def _step(lines: list[str], steps: list[dict[str, Any]], label: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    lines.append(f"{status}: {label}{suffix}")
    steps.append({"label": label, "ok": ok, "detail": detail})
    if not ok:
        raise _DemoFailure(label)


def _random_rational_weights(rng: random.Random, count: int) -> list[Fraction]:
    raw = [rng.randint(0, 9) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    total = sum(raw)
    return [Fraction(value, total) for value in raw]


def _random_ns_kernel(rng: random.Random) -> Behavior:
    from .catalog import pr_box

    generators = list(enumerate_local_vertices(table1_box().spaces)) + [pr_box()]
    weights = _random_rational_weights(rng, len(generators))
    return mix((Scalar(w), g) for w, g in zip(weights, generators))


def _random_local_model(rng: random.Random, n_pairs: int = 3) -> HiddenVariableModel:
    pairs = tuple((f"u{i}", f"v{i}") for i in range(n_pairs))
    weights = tuple(Scalar(w) for w in _random_rational_weights(rng, n_pairs))
    kernels = tuple(_random_ns_kernel(rng) for _ in range(n_pairs))
    return HiddenVariableModel(pairs, weights, kernels)


def _demo_appendix_a(lines: list[str], steps: list[dict[str, Any]]) -> None:
    model = appendix_a_model()
    box = table1_box()
    _step(lines, steps, "built the five-pair hidden-variable model and its target box", True)
    _step(lines, steps, "reconstruction equals the target box cell-for-cell", reconstruct(model) == box)
    local, _ = check_locality(model)
    _step(lines, steps, "model is local: every kernel is no-signalling", local)
    trivial, witness = check_triviality(model)
    _step(
        lines,
        steps,
        "model is non-trivial",
        not trivial,
        witness.describe() if witness else "",
    )
    weight = nontrivial_weight(model)
    _step(
        lines,
        steps,
        f"nontrivial_weight = {format_scalar(weight)}",
        weight == parse_scalar("1-1/2*sqrt2"),
    )
    expected_guess = parse_scalar("1-1/4*sqrt2")
    for side, prefix in (("alice", "a"), ("bob", "b")):
        settings = model.spaces[0] if side == "alice" else model.spaces[1]
        for setting in settings:
            value = guessing_probability(model, side, setting)
            _step(
                lines,
                steps,
                f"guessing probability {prefix}={setting}: {format_scalar(value)}",
                value == expected_guess,
            )
    value = evaluate(chsh(), box)
    _step(lines, steps, f"CHSH value of the box: {format_scalar(value)}", value == parse_scalar("2*sqrt2"))
    bound, _ = local_bound(chsh())
    _step(lines, steps, f"CHSH local bound by enumeration: {format_scalar(bound)}", bound == parse_scalar("2"))
    ns_value = ns_bound(chsh())
    _step(lines, steps, f"CHSH no-signalling bound by LP: {format_scalar(ns_value)}", ns_value == parse_scalar("4"))
    decomposition = max_local_content(box)
    _step(
        lines,
        steps,
        f"maximal local content (decomposition-based) by LP: {format_scalar(decomposition.local_content)}",
        decomposition.local_content == parse_scalar("2-1*sqrt2"),
    )
    _step(
        lines,
        steps,
        "the LP exceeds this model's local part, so the hand-built split is not maximal",
        (decomposition.local_content - weight).sign() > 0,
    )
    lines.append(
        f"nontrivial_weight: {format_scalar(weight)}; "
        f"max_local_content: {format_scalar(decomposition.local_content)}"
    )


def _demo_appendix_b(lines: list[str], steps: list[dict[str, Any]]) -> None:
    box = signalling_box()
    _step(lines, steps, "built the completely signalling box X=B, Y=A", True)
    ok, witness = is_no_signalling(box)
    _step(lines, steps, "box fails the no-signalling check", not ok, witness.describe() if witness else "")
    try:
        max_local_content(box)
        decomposition_refused = False
    except SignallingInput:
        decomposition_refused = True
    _step(lines, steps, "decomposition refuses the box: no local model possible", decomposition_refused)
    rng = random.Random(20100205)
    trials = 100
    closure_holds = True
    for _ in range(trials):
        model = _random_local_model(rng)
        local, _ = check_locality(model)
        ns, _ = is_no_signalling(reconstruct(model))
        if not (local and ns):
            closure_holds = False
            break
    _step(
        lines,
        steps,
        f"{trials} randomized local models all reconstruct to no-signalling boxes",
        closure_holds,
    )
    lines.append(
        "conclusion: mixtures of no-signalling kernels stay no-signalling, so a signalling box "
        "admits no local hidden-variable model (no local model possible)"
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    demos = {"appendix-a": _demo_appendix_a, "appendix-b": _demo_appendix_b}
    runner = demos.get(args.name)
    if runner is None:
        print(f"error: unknown demo {args.name!r}; available: {', '.join(sorted(demos))}", file=sys.stderr)
        return 2
    lines: list[str] = [f"demo: {args.name}"]
    steps: list[dict[str, Any]] = []
    code = 0
    try:
        runner(lines, steps)
    except _DemoFailure:
        code = 1
    _emit(args, lines, {"demo": args.name, "steps": steps, "ok": code == 0})
    return code


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text", help="report format")

    parser = argparse.ArgumentParser(prog="hvlab", description="exact analysis of boxes and hidden-variable models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common], help="validate a box or model file and check its properties")
    p_check.add_argument("path", help="box or model JSON file")
    p_check.add_argument("--against", help="box file used as the triviality reference for models")
    p_check.set_defaults(func=_cmd_check)

    p_bell = sub.add_parser("bell", parents=[common], help="evaluate a Bell expression on a box")
    p_bell.add_argument("expression", help="'chsh' or an expression JSON file")
    p_bell.add_argument("box", help="box JSON file")
    p_bell.set_defaults(func=_cmd_bell)

    p_dec = sub.add_parser("decompose", parents=[common], help="maximal local content of a no-signalling box")
    p_dec.add_argument("box", help="box JSON file")
    p_dec.add_argument("--emit-model", metavar="PATH", help="write the induced hidden-variable model")
    p_dec.add_argument("--verify", action="store_true", help="re-check the decomposition and its LP certificate")
    p_dec.set_defaults(func=_cmd_decompose)

    p_model = sub.add_parser("model", help="operations on model files")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)

    p_verify = model_sub.add_parser("verify", parents=[common], help="check exact reconstruction against a box")
    p_verify.add_argument("model")
    p_verify.add_argument("--against", required=True, help="target box JSON file")
    p_verify.set_defaults(func=_cmd_model_verify)

    p_guess = model_sub.add_parser("guess", parents=[common], help="per-setting guessing probabilities")
    p_guess.add_argument("model")
    p_guess.add_argument("--side", choices=("A", "B"), required=True)
    p_guess.set_defaults(func=_cmd_model_guess)

    p_marg = model_sub.add_parser("marginalize", parents=[common], help="fold a w_extension into pair kernels")
    p_marg.add_argument("model")
    p_marg.add_argument("--output", "-o", required=True, help="output model JSON file")
    p_marg.set_defaults(func=_cmd_model_marginalize)

    p_first = model_sub.add_parser(
        "first-mover", parents=[common], help="independence of B from (X,A,U,V) when Alice acts first"
    )
    p_first.add_argument("model")
    p_first.set_defaults(func=_cmd_model_first_mover)

    p_catalog = sub.add_parser("catalog", help="built-in boxes, models and constants")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    p_list = catalog_sub.add_parser("list", parents=[common], help="list catalog entries")
    p_list.set_defaults(func=_cmd_catalog_list)
    p_show = catalog_sub.add_parser("show", parents=[common], help="show one entry in exportable form")
    p_show.add_argument("key")
    p_show.set_defaults(func=_cmd_catalog_show)

    p_demo = sub.add_parser("demo", parents=[common], help="run a narrated end-to-end demonstration")
    p_demo.add_argument("name", help="appendix-a or appendix-b")
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device,
    so the interpreter's last flush of what is still buffered is quiet."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout has gone (``hvlab catalog list | head -1``):
        # end quietly with the status of a tool that SIGPIPE killed.
        _discard_stdout()
        return 141
    except (SignallingInput, NotLocal) as exc:
        print(f"property failed: {exc}", file=sys.stderr)
        return 1
    except HvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never crash on hostile input
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
