"""Command-line behavior: reports, exit codes, JSON mode, robustness."""

import json
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest

import hvlab.bell
from hvlab.boxes import LabelSet, uniform_behavior
from hvlab.catalog import appendix_a_model, noise_box, pr_box, signalling_box, table1_box
from hvlab.cli import main
from hvlab.formats import load_model, save_box, save_model
from hvlab.hvmodel import FIRST_MOVER_CELL_BUDGET, HiddenVariableModel, reconstruct
from hvlab.scalar import ONE, parse_scalar
from hvlab.simplex import LpSolution, solve_lp


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, box in (
        ("table1", table1_box()),
        ("pr", pr_box()),
        ("noise", noise_box()),
        ("signalling", signalling_box()),
    ):
        path = tmp_path / f"{name}.box.json"
        save_box(box, path)
        paths[name] = str(path)
    model_path = tmp_path / "appendix_a.model.json"
    save_model(appendix_a_model(), model_path)
    paths["model"] = str(model_path)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_ns_box(files, capsys):
    code, out, _ = run(capsys, "check", files["table1"])
    assert code == 0
    assert "no-signalling: true" in out


def test_check_signalling_box_exits_one_with_witness(files, capsys):
    code, out, _ = run(capsys, "check", files["signalling"])
    assert code == 1
    assert "no-signalling: false" in out
    assert "witness" in out


def test_check_model_report(files, capsys):
    code, out, _ = run(capsys, "check", files["model"])
    assert code == 0
    assert "local: true" in out
    assert "trivial: false" in out
    assert "nontrivial_weight: 1-1/2*sqrt2" in out


def test_check_invalid_box_exits_two(files, capsys, tmp_path):
    with open(files["table1"]) as handle:
        data = json.load(handle)
    data["p"]["0|1"][0][0] = "1"
    bad = tmp_path / "bad.box.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 2
    assert "valid: false" in out


def test_check_json_format_has_exact_strings(files, capsys):
    code, out, _ = run(capsys, "check", files["model"], "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["nontrivial_weight"] == "1-1/2*sqrt2"
    assert isinstance(report["nontrivial_weight_approx"], float)
    parse_scalar(report["nontrivial_weight"])


def test_bell_chsh_on_table1(files, capsys):
    code, out, _ = run(capsys, "bell", "chsh", files["table1"])
    assert code == 0
    assert "value: 2*sqrt2" in out
    assert "local_bound: 2" in out
    assert "ns_bound: 4" in out


def test_bell_chsh_on_pr_and_noise(files, capsys):
    code, out, _ = run(capsys, "bell", "chsh", files["pr"])
    assert code == 0 and "value: 4" in out
    code, out, _ = run(capsys, "bell", "chsh", files["noise"])
    assert code == 0 and "value: 0" in out


def test_bell_with_an_uncertified_ns_bound_exits_two(files, capsys, monkeypatch):
    def overstated(problem):
        solution = solve_lp(problem)
        return LpSolution(solution.status, solution.q, solution.value + ONE, solution.dual)

    monkeypatch.setattr(hvlab.bell, "solve_lp", overstated)
    code, out, err = run(capsys, "bell", "chsh", files["table1"])
    assert code == 2
    assert "certificate" in err and "unexpected error" not in err
    assert "ns_bound" not in out


def test_bell_space_mismatch_exits_two(files, capsys):
    code, _, err = run(capsys, "bell", "chsh", files["signalling"])
    assert code == 2
    assert "error" in err


def test_bell_with_expression_file(files, capsys, tmp_path):
    from hvlab.bell import chsh
    from hvlab.formats import save_expression

    path = tmp_path / "chsh.expr.json"
    save_expression(chsh(), path)
    code, out, _ = run(capsys, "bell", str(path), files["table1"])
    assert code == 0
    assert "value: 2*sqrt2" in out


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_bell_with_coefficient_past_float_range(files, capsys, tmp_path, fmt):
    from hvlab.bell import BellExpression, chsh, evaluate
    from hvlab.formats import save_expression
    from hvlab.scalar import Scalar, format_scalar

    big = Scalar(10**400)
    expression = chsh()
    table = (big,) + expression.table[1:]
    path = tmp_path / "big.expr.json"
    save_expression(BellExpression(*expression.spaces, table), path)
    box = table1_box()
    expected = format_scalar(evaluate(expression, box) + (big - expression.table[0]) * box.table[0])
    code, out, err = run(capsys, "bell", str(path), files["table1"], *fmt)
    assert code == 0
    assert "unexpected error" not in err
    if fmt:
        report = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON constant {name}"))
        assert report["value"] == expected
        assert report["value_approx"] is None
    else:
        assert f"value: {expected} (~inf)" in out


def test_check_rejects_expression_file(files, capsys, tmp_path):
    from hvlab.bell import chsh
    from hvlab.formats import save_expression

    path = tmp_path / "chsh.expr.json"
    save_expression(chsh(), path)
    for report_format in ("text", "json"):
        code, out, err = run(capsys, "check", str(path), "--format", report_format)
        assert code == 2
        assert out == ""
        assert err == "error: check expects a box or model file\n"


def test_check_model_against_external_box(files, capsys):
    code, out, _ = run(capsys, "check", files["model"], "--against", files["table1"])
    assert code == 0
    assert "trivial: false" in out


def test_decompose_table1(files, capsys):
    code, out, _ = run(capsys, "decompose", files["table1"], "--verify")
    assert code == 0
    assert "local_content: 2-1*sqrt2" in out
    assert "certificate_verified: true" in out


def test_decompose_pr(files, capsys):
    code, out, _ = run(capsys, "decompose", files["pr"])
    assert code == 0
    assert "local_content: 0" in out


@pytest.mark.parametrize(
    "k, lines",
    [
        (0, ["local_content: 1/2 (~0.5000000)", "vertices_used: 1", "residual_weight: 1/2 (~0.5000000)"]),
        (2, ["local_content: 1 (~1.0000000)", "vertices_used: 4"]),
    ],
)
def test_decompose_reports_a_residual_only_below_full_content(capsys, tmp_path, k, lines):
    # Half the PR box and half vertex 0 has content 1/2; with vertex 2 the
    # box is fully local and its decomposition has no residual.
    from hvlab.boxes import mix
    from hvlab.decompose import enumerate_local_vertices
    from hvlab.scalar import HALF

    path = tmp_path / f"pr-vertex-{k}.box.json"
    save_box(mix([(HALF, pr_box()), (HALF, enumerate_local_vertices(pr_box().spaces)[k])]), path)
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert out.splitlines() == ["maximal local content (decomposition-based)", *lines]
    code, out, _ = run(capsys, "decompose", str(path), "--format", "json")
    report = json.loads(out)
    assert report["residual_used"] is (k == 0)
    assert report.get("residual_weight") == ("1/2" if k == 0 else None)


def test_decompose_signalling_exits_one(files, capsys):
    code, _, err = run(capsys, "decompose", files["signalling"])
    assert code == 1
    assert "signalling input: no local hidden variable model exists" in err


def test_decompose_past_the_size_budget_exits_two(capsys, tmp_path):
    from helpers import OVERSIZED_SPACES, WIDE_SPACES
    from hvlab.boxes import uniform_behavior

    for spaces in (OVERSIZED_SPACES, WIDE_SPACES):
        path = tmp_path / "big.box.json"
        save_box(uniform_behavior(*spaces), path)
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert "budget" in err
        assert "unexpected error" not in err


def test_bell_past_the_no_signalling_budget_exits_two(capsys, tmp_path):
    from helpers import numbered_spaces
    from hvlab.bell import BellExpression
    from hvlab.boxes import uniform_behavior
    from hvlab.formats import save_expression

    # One setting and 128 outcomes per side: the local bound runs, the
    # no-signalling LP's matrix would hold 16 384 rows of 16 383 columns.
    spaces = numbered_spaces(1, 1, 128, 128)
    save_expression(BellExpression(*spaces, (ONE,) * 128**2), tmp_path / "wide.expr.json")
    save_box(uniform_behavior(*spaces), tmp_path / "wide.box.json")
    code, out, err = run(capsys, "bell", str(tmp_path / "wide.expr.json"), str(tmp_path / "wide.box.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget" in err
    assert "unexpected error" not in err


def test_decompose_emit_model_round_trips(files, capsys, tmp_path):
    out_path = tmp_path / "decomposition.model.json"
    code, out, _ = run(capsys, "decompose", files["table1"], "--emit-model", str(out_path))
    assert code == 0
    model = load_model(out_path)
    assert reconstruct(model) == table1_box()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["decompose", "marginalize"])
def test_an_unwritable_output_path_exits_two(files, capsys, tmp_path, command, target):
    path = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
    if command == "decompose":
        argv = ("decompose", files["table1"], "--emit-model", str(path))
    else:
        argv = ("model", "marginalize", files["model"], "-o", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "unexpected error" not in err


def test_decompose_emits_distinct_pairs_for_colliding_labels(capsys, tmp_path):
    from helpers import comma_label_box

    box_path, model_path = tmp_path / "comma.box.json", tmp_path / "comma.model.json"
    save_box(comma_label_box(), box_path)
    code, out, err = run(capsys, "decompose", str(box_path), "--verify", "--emit-model", str(model_path))
    assert code == 0 and err == ""
    assert "local_content: 1" in out
    assert load_model(model_path).pairs == (("0,1", "p,q"), ("0,1'", "p,q'"))
    code, out, _ = run(capsys, "model", "verify", str(model_path), "--against", str(box_path))
    assert code == 0
    assert "reconstruction matches: true" in out


def test_model_verify_match_and_mismatch(files, capsys):
    code, out, _ = run(capsys, "model", "verify", files["model"], "--against", files["table1"])
    assert code == 0
    assert "reconstruction matches: true" in out
    code, out, _ = run(capsys, "model", "verify", files["model"], "--against", files["pr"])
    assert code == 1
    assert "reconstruction matches: false" in out


def test_model_guess_sides(files, capsys):
    code, out, _ = run(capsys, "model", "guess", files["model"], "--side", "A")
    assert code == 0
    assert "a=0: 1-1/4*sqrt2" in out
    assert "a=2: 1-1/4*sqrt2" in out
    code, out, _ = run(capsys, "model", "guess", files["model"], "--side", "B")
    assert code == 0
    assert "b=1: 1-1/4*sqrt2" in out


def test_model_guess_not_local_exits_one(files, capsys, tmp_path):
    from hvlab.hvmodel import HiddenVariableModel
    from hvlab.scalar import ONE

    box = signalling_box()
    model = HiddenVariableModel((("u", "v"),), (ONE,), (box,))
    path = tmp_path / "nonlocal.model.json"
    save_model(model, path)
    code, _, err = run(capsys, "model", "guess", str(path), "--side", "A")
    assert code == 1
    assert "property failed" in err


@pytest.mark.parametrize("cell", [["1/4"], {"x": "1/4"}])
def test_model_file_with_a_cell_that_is_not_a_string_exits_two(files, capsys, tmp_path, cell):
    data = json.loads(Path(files["model"]).read_text())
    data["pairs"][1]["p"]["0|1"][0][0] = cell
    path = tmp_path / "bad-cell.model.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "pairs[1].p['0|1'][0][0]: expected a scalar string" in err
    assert "unexpected error" not in err


def test_model_marginalize_writes_plain_model(files, capsys, tmp_path):
    from helpers import CHSH_SPACES
    from hvlab.boxes import LabelSet, deterministic_behavior
    from hvlab.hvmodel import ExtendedModel, WExtension
    from hvlab.scalar import HALF

    sa, sb, ox, oy = CHSH_SPACES
    k0 = deterministic_behavior(sa, sb, ox, oy, ("+1", "+1"), ("+1", "+1"))
    k1 = deterministic_behavior(sa, sb, ox, oy, ("-1", "-1"), ("-1", "-1"))
    extended = ExtendedModel(
        (("u", "v"),),
        (parse_scalar("1"),),
        (WExtension(LabelSet(("0", "1")), (HALF, HALF), (k0, k1)),),
    )
    in_path = tmp_path / "extended.model.json"
    save_model(extended, in_path)
    out_path = tmp_path / "plain.model.json"
    code, out, _ = run(capsys, "model", "marginalize", str(in_path), "--output", str(out_path))
    assert code == 0
    folded = load_model(out_path)
    from hvlab.hvmodel import HiddenVariableModel, marginalize_nonlocal

    assert isinstance(folded, HiddenVariableModel)
    assert folded == marginalize_nonlocal(extended)


def test_model_first_mover(files, capsys):
    code, out, _ = run(capsys, "model", "first-mover", files["model"])
    assert code == 0
    assert "B independent of (X,A,U,V): true" in out


def test_model_first_mover_refuses_an_oversized_table(tmp_path, capsys):
    # n hidden pairs of distinct labels on the CHSH spaces need 2 * 2 * n * n * 2 cells.
    n = isqrt(FIRST_MOVER_CELL_BUDGET // 8) + 1
    box = noise_box()
    model = HiddenVariableModel(tuple((f"u{i}", f"v{i}") for i in range(n)), (ONE / n,) * n, (box,) * n)
    path = tmp_path / "wide.model.json"
    save_model(model, path)
    code, out, err = run(capsys, "model", "first-mover", str(path))
    assert code == 2
    assert out == ""
    assert f"{8 * n * n} cells exceed the budget of {FIRST_MOVER_CELL_BUDGET} cells" in err
    assert "unexpected error" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
def test_an_exact_result_too_long_to_print_is_a_classified_error(tmp_path, capsys):
    # Each setting pair's row sits over its own denominator of k + 1 digits,
    # within the digit limit; the CHSH value sits over their lcm, past it.
    k = sys.get_int_max_str_digits() * 7 // 12
    rows = {}
    for key, offset in zip(("0|1", "0|3", "2|1", "2|3"), (1, 3, 7, 9)):
        d = 10**k + offset
        rows[key] = [[f"1/{d}", f"{d - 1}/{d}"], ["0", "0"]]
    labels = {"settings_a": ["0", "2"], "settings_b": ["1", "3"], "outcomes_x": ["+1", "-1"], "outcomes_y": ["+1", "-1"]}
    path = tmp_path / "long.box.json"
    path.write_text(json.dumps({**labels, "p": rows}))
    for extra in ((), ("--format", "json")):
        code, out, err = run(capsys, "bell", "chsh", str(path), *extra)
        assert code == 2
        assert out == ""
        assert f"limit {sys.get_int_max_str_digits()} digits" in err
        assert "unexpected error" not in err


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "table1-box" in out and "appendix-a-model" in out
    code, out, _ = run(capsys, "catalog", "show", "alpha")
    assert code == 0
    assert "1/4-1/8*sqrt2" in out
    code, out, _ = run(capsys, "catalog", "show", "table1-box", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["p"]["0|1"][0][0] == "1/4+1/8*sqrt2"
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 2
    assert err == "error: unknown catalog key 'nope'; try 'hvlab catalog list'\n"


class _ClosedPipe:
    """A stdout whose reader has gone: every write and flush fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


def test_closed_stdout_ends_quietly_with_141(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["catalog", "list"])
    err = capsys.readouterr().err
    assert code == 141
    assert "unexpected error" not in err


def _cli_env(**extra):
    """The environment of a fresh ``python -m hvlab.cli``: this checkout's
    sources first on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def _list_into_a_closed_pipe(tmp_path):
    """``catalog list`` into a pipe whose read end is closed before it starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hvlab.cli", "catalog", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    return result.returncode, result.stderr


def _unbuffered_json_cut_short(tmp_path):
    """``model guess --format json`` under PYTHONUNBUFFERED=1, its reader
    closing after the first bytes: one pair whose kernel has 6000 Alice
    settings gives a report of about 214 KB, larger than the pipe."""
    outcomes = LabelSet(("0", "1"))
    box = uniform_behavior(LabelSet(tuple(map(str, range(6000)))), LabelSet(("0",)), outcomes, outcomes)
    model = tmp_path / "big.model.json"
    save_model(HiddenVariableModel((("u", "v"),), (ONE,), (box,)), model)
    command = [sys.executable, "-m", "hvlab.cli", "model", "guess", str(model), "--side", "A", "--format", "json"]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(PYTHONUNBUFFERED="1")
    ) as process:
        assert process.stdout.read(10) == b'{\n  "side"'
        process.stdout.close()
        stderr = process.stderr.read()
        return process.wait(timeout=120), stderr


@pytest.mark.parametrize("run_cut_short", [_list_into_a_closed_pipe, _unbuffered_json_cut_short])
def test_closed_stdout_pipe_in_a_fresh_process(tmp_path, run_cut_short):
    returncode, stderr = run_cut_short(tmp_path)
    assert returncode == 141
    assert stderr == b""  # no "unexpected error", no ignored exception at exit


def test_demo_appendix_a(capsys):
    code, out, _ = run(capsys, "demo", "appendix-a")
    assert code == 0
    assert out.rstrip().endswith("nontrivial_weight: 1-1/2*sqrt2; max_local_content: 2-1*sqrt2")


def test_demo_appendix_b(capsys):
    code, out, _ = run(capsys, "demo", "appendix-b")
    assert code == 0
    assert "no local model possible" in out


def test_demo_unknown_name(capsys):
    code, _, err = run(capsys, "demo", "unknown")
    assert code == 2
    assert err == "error: unknown demo 'unknown'; available: appendix-a, appendix-b\n"


def test_usage_error_exits_two(capsys):
    assert main(["bogus-command"]) == 2
    assert main([]) == 2


def test_fuzzed_inputs_never_crash(capsys, tmp_path):
    rng = random.Random(314159)
    samples = [
        b"",
        b"{",
        b"[]",
        b"null",
        b'{"p": 1}',
        b'{"pairs": []}',
        b'{"settings_a": [], "settings_b": [], "outcomes_x": [], "outcomes_y": [], "p": {}}',
        "{\"p\": {\"a|b\": [[\"1/0\"]]}}".encode(),
        b"\xff\xfe\x00\x01binary",
        # past the interpreter's int() digit limit
        json.dumps(
            {"settings_a": ["0"], "settings_b": ["0"], "outcomes_x": ["0"], "outcomes_y": ["0"],
             "p": {"0|0": [["1" * 5001]]}}
        ).encode(),
        # past the interpreter's recursion limit
        b"[" * 200000,
        # a JSON integer literal past the interpreter's int() digit limit
        b'{"p": ' + b"1" * 5000 + b"}",
    ]
    for _ in range(20):
        samples.append(bytes(rng.randrange(256) for _ in range(rng.randrange(1, 80))))
    for i, blob in enumerate(samples):
        path = tmp_path / f"fuzz{i}.json"
        path.write_bytes(blob)
        for argv in (["check", str(path)], ["bell", "chsh", str(path)], ["decompose", str(path)]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, (argv, blob)
            assert "unexpected error" not in err, (argv, blob[:80], err)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int() digit limit")
@pytest.mark.parametrize(
    "command",
    [["check", "{}"], ["bell", "chsh", "{}"], ["decompose", "{}"], ["model", "verify", "{}", "--against", "{}"]],
)
def test_a_json_integer_past_the_digit_limit_is_a_file_format_error(command, capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_bytes(b'{"p": ' + b"1" * 5000 + b"}")
    assert main([arg.format(path) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} holds a number too long to read")
    assert "unexpected error" not in err


# -- check on invalid and w-extension models --------------------------------
# The expected reports below were recorded before validity reports were
# kept on the objects, and must not change.


def _invalid_model():
    """Weights summing to 5/6, and a normalized kernel row with a negative cell."""
    from hvlab.boxes import Behavior, deterministic_behavior
    from hvlab.hvmodel import HiddenVariableModel

    spaces = table1_box().spaces
    vertex = deterministic_behavior(*spaces, ("+1", "+1"), ("+1", "+1"))
    broken = Behavior(*spaces, (parse_scalar("3/2"), parse_scalar("-1/2")) + vertex.table[2:])
    return HiddenVariableModel((("u0", "v0"), ("u1", "v1")), (parse_scalar("1/2"), parse_scalar("1/3")), (vertex, broken))


def _extended_model(valid: bool):
    """Pair (s, s) averages the signalling box X=B, Y=A with its
    outcome-flipped twin; pair (d, d) has a plain deterministic kernel.
    The invalid variant weights the pairs with 1/2 and 1/3, weights w with
    3/2 and -1/2 and breaks one kernel."""
    from hvlab.boxes import Behavior, LabelSet, deterministic_behavior
    from hvlab.hvmodel import ExtendedModel, WExtension

    box = signalling_box()
    flipped = Behavior(*box.spaces, tuple(v for i in range(0, 16, 4) for v in reversed(box.table[i : i + 4])))
    w_weights = pair_weights = (parse_scalar("1/2"), parse_scalar("1/2"))
    if not valid:
        pair_weights = (parse_scalar("1/2"), parse_scalar("1/3"))
        w_weights = (parse_scalar("3/2"), parse_scalar("-1/2"))
        flipped = Behavior(*box.spaces, (parse_scalar("2"),) + flipped.table[1:])
    plain = deterministic_behavior(*box.spaces, ("0", "0"), ("1", "1"))
    extensions = (
        WExtension(LabelSet(("0", "1")), w_weights, (box, flipped)),
        WExtension(LabelSet(("0",)), (parse_scalar("1"),), (plain,)),
    )
    return ExtendedModel((("s", "s"), ("d", "d")), pair_weights, extensions)


_INVALID_MODEL_PROBLEMS = (
    "weights sum to 5/6, expected 1; kernel at pair ('u1', 'v1'): negative cell P(+1,-1|0,1) = -1/2"
)
_INVALID_EXTENDED_PROBLEMS = (
    "pair weights sum to 5/6, expected 1; "
    "negative weight -1/2 for w=1 at pair ('s', 's'); kernel at pair ('s', 's'), w=1: row (0,0) sums to 3"
)


def test_check_invalid_model_reports(capsys, tmp_path):
    path = tmp_path / "invalid.model.json"
    save_model(_invalid_model(), path)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert out == f"kind: model\nvalid: false\nproblems: {_INVALID_MODEL_PROBLEMS}\n"
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out) == {"kind": "model", "valid": False, "problems": _INVALID_MODEL_PROBLEMS}


def test_check_extended_model_reports(capsys, tmp_path):
    path = tmp_path / "extended.model.json"
    save_model(_extended_model(valid=True), path)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out == (
        "kind: model\n"
        "w_extension: folded into pair kernels\n"
        "valid: true\n"
        "local: true\n"
        "trivial: false\n"
        "triviality witness: pair (s,s), alice setting 0, outcome 0: kernel marginal 1/2 != behavior marginal 3/4\n"
        "nontrivial_weight: 1\n"
        "note: nontrivial_weight is this tool's quantification of the non-trivial local mass\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "model",
        "w_extension": "folded",
        "valid": True,
        "local": True,
        "trivial": False,
        "triviality_witness": {
            "pair": ["s", "s"],
            "side": "alice",
            "setting": "0",
            "counterpart": "0",
            "outcome": "0",
            "kernel_value": "1/2",
            "model_value": "3/4",
        },
        "nontrivial_weight": "1",
        "nontrivial_weight_approx": 1.0,
    }


def test_check_invalid_extended_model_reports(capsys, tmp_path):
    path = tmp_path / "invalid-extended.model.json"
    save_model(_extended_model(valid=False), path)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert out == f"kind: model\nvalid: false\nproblems: {_INVALID_EXTENDED_PROBLEMS}\n"
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out) == {"kind": "model", "valid": False, "problems": _INVALID_EXTENDED_PROBLEMS}


@pytest.mark.parametrize("outcomes_x", [("+", "-"), ("+1", "-1", "0")])
def test_check_model_against_box_with_other_spaces_exits_two(files, capsys, tmp_path, outcomes_x):
    from hvlab.boxes import LabelSet, uniform_behavior

    sa, sb, _, oy = table1_box().spaces
    path = tmp_path / "other.box.json"
    save_box(uniform_behavior(sa, sb, LabelSet(outcomes_x), oy), path)
    code, out, err = run(capsys, "check", files["model"], "--against", str(path))
    assert code == 2
    assert "unexpected error" not in err
    assert err == "error: triviality reference and model spaces differ\n"
    assert out == ""


@pytest.mark.parametrize("report_format", ["text", "json"])
def test_check_box_refuses_a_triviality_reference(files, capsys, report_format):
    # --against names the triviality reference of a model; a box has none.
    code, out, err = run(capsys, "check", files["table1"], "--against", files["table1"], "--format", report_format)
    assert code == 2
    assert out == ""
    assert err == "error: --against applies to model files, not to a box\n"


# -- property-false reports of the model commands ----------------------------


@pytest.fixture()
def signalling_model(tmp_path):
    """One hidden pair whose kernel is half the signalling box and half
    the uniform box on binary spaces: Alice's marginal moves with b."""
    from hvlab.boxes import mix, uniform_behavior
    from hvlab.scalar import HALF

    box = signalling_box()
    kernel = mix([(HALF, box), (HALF, uniform_behavior(*box.spaces))])
    path = tmp_path / "signalling.model.json"
    save_model(HiddenVariableModel((("u0", "v0"),), (ONE,), (kernel,)), path)
    return str(path)


def test_check_a_model_with_a_signalling_kernel_exits_one_with_its_witness(signalling_model, capsys):
    code, out, _ = run(capsys, "check", signalling_model)
    assert code == 1
    assert "local: false\n" in out
    assert (
        "witness: pair (u0,v0): alice marginal at a=0, outcome 0 depends on the counterpart: "
        "b=0 gives 3/4 but b=1 gives 1/4\n"
    ) in out
    code, out, _ = run(capsys, "check", signalling_model, "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["local"] is False
    # The no-signalling witness's fields in field order, then the pair.
    assert list(report["locality_witness"].items()) == [
        ("side", "alice"),
        ("setting", "0"),
        ("counterpart_reference", "0"),
        ("counterpart_other", "1"),
        ("outcome", "0"),
        ("value_reference", "3/4"),
        ("value_other", "1/4"),
        ("pair", ["u0", "v0"]),
    ]


def test_first_mover_on_a_signalling_kernel_exits_one_with_its_witness(signalling_model, capsys):
    code, out, _ = run(capsys, "model", "first-mover", signalling_model)
    assert code == 1
    assert out == (
        "B independent of (X,A,U,V): false\n"
        "witness: at A=0, B=0, U=u0, V=v0, X=0: joint 3/16 != 1/2 * 1/4 = 1/8\n"
    )
    code, out, _ = run(capsys, "model", "first-mover", signalling_model, "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "independent": False,
        "witness": {
            "assignment": {"A": "0", "B": "0", "U": "u0", "V": "v0", "X": "0"},
            "joint_value": "3/16",
            "left_value": "1/2",
            "right_value": "1/4",
        },
    }


def test_model_verify_against_a_box_on_other_spaces_exits_one(files, signalling_model, capsys):
    code, out, _ = run(capsys, "model", "verify", signalling_model, "--against", files["table1"])
    assert code == 1
    assert out == "reconstruction matches: false (spaces differ)\n"
    code, out, _ = run(capsys, "model", "verify", signalling_model, "--against", files["table1"], "--format", "json")
    assert code == 1
    assert json.loads(out) == {"matches": False, "reason": "spaces differ"}
