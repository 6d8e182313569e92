"""File formats: canonical round trips, schema strictness, scalar strings."""

import json
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CHSH_SPACES
from hvlab.bell import chsh
from hvlab.boxes import Behavior, LabelSet
from hvlab.catalog import appendix_a_model, entries, pr_box, table1_box
from hvlab.errors import FileFormatError, InvalidBehavior, InvalidModel
from hvlab.formats import (
    behavior_from_dict,
    behavior_to_dict,
    dump_json,
    expression_from_dict,
    expression_to_dict,
    load_box,
    load_model,
    model_from_dict,
    model_to_dict,
    save_box,
    save_expression,
    save_model,
    sniff_kind,
)
from hvlab.hvmodel import ExtendedModel, WExtension, marginalize_nonlocal
from hvlab.scalar import HALF, ONE, format_scalar, parse_scalar


def test_box_round_trip_all_catalog_behaviors():
    for entry in entries().values():
        if entry.kind != "behavior":
            continue
        data = behavior_to_dict(entry.value)
        assert behavior_from_dict(data) == entry.value


def test_model_round_trip_all_catalog_models():
    for entry in entries().values():
        if entry.kind != "model":
            continue
        data = model_to_dict(entry.value)
        assert model_from_dict(data) == entry.value


def test_expression_round_trip():
    data = expression_to_dict(chsh())
    assert expression_from_dict(data) == chsh()


def test_round_trip_through_files(tmp_path):
    box_path = tmp_path / "box.json"
    save_box(table1_box(), box_path)
    assert load_box(box_path) == table1_box()
    model_path = tmp_path / "model.json"
    save_model(appendix_a_model(), model_path)
    assert load_model(model_path) == appendix_a_model()


def test_serialized_scalars_are_canonical():
    data = behavior_to_dict(table1_box())
    for block in data["p"].values():
        for row in block:
            for text in row:
                assert format_scalar(parse_scalar(text)) == text


def _extended_model() -> ExtendedModel:
    sa, sb, ox, oy = CHSH_SPACES
    from hvlab.boxes import deterministic_behavior

    k0 = deterministic_behavior(sa, sb, ox, oy, ("+1", "+1"), ("+1", "+1"))
    k1 = deterministic_behavior(sa, sb, ox, oy, ("-1", "-1"), ("-1", "-1"))
    return ExtendedModel(
        (("u0", "v0"), ("u1", "v1")),
        (HALF, HALF),
        (
            WExtension(LabelSet(("w0", "w1")), (HALF, HALF), (k0, k1)),
            WExtension(LabelSet(("0",)), (ONE,), (k0,)),
        ),
    )


def test_extended_model_round_trip():
    model = _extended_model()
    data = model_to_dict(model)
    parsed = model_from_dict(data)
    assert isinstance(parsed, ExtendedModel)
    assert parsed == model
    assert marginalize_nonlocal(parsed) == marginalize_nonlocal(model)


def test_mixed_plain_and_extended_pairs_parse_to_extended():
    model = _extended_model()
    data = model_to_dict(model)
    # replace the second pair's extension by a plain kernel table
    plain_kernel = data["pairs"][1]["w_extension"][0]["p"]
    data["pairs"][1] = {
        "u": "u1",
        "v": "v1",
        "weight": data["pairs"][1]["weight"],
        "p": plain_kernel,
    }
    parsed = model_from_dict(data)
    assert isinstance(parsed, ExtendedModel)
    folded = marginalize_nonlocal(parsed)
    assert folded == marginalize_nonlocal(model)


def test_labels_with_pipe_rejected_both_ways():
    sa, sb, ox, oy = CHSH_SPACES
    weird = Behavior(LabelSet(("a|b",)), sb, ox, oy, tuple([parse_scalar("1/4")] * 8))
    with pytest.raises(FileFormatError):
        behavior_to_dict(weird)
    data = behavior_to_dict(table1_box())
    data["settings_a"] = ["0|x", "2"]
    with pytest.raises(FileFormatError):
        behavior_from_dict(data)


def test_unknown_and_missing_keys_rejected():
    data = behavior_to_dict(table1_box())
    data["extra"] = 1
    with pytest.raises(FileFormatError):
        behavior_from_dict(data)
    del data["extra"]
    del data["outcomes_y"]
    with pytest.raises(FileFormatError):
        behavior_from_dict(data)


def test_wrong_block_shape_rejected():
    data = behavior_to_dict(table1_box())
    data["p"]["0|1"] = [["1/2", "1/2"]]
    with pytest.raises(FileFormatError):
        behavior_from_dict(data)


def test_wrong_key_set_rejected():
    data = behavior_to_dict(table1_box())
    del data["p"]["0|1"]
    with pytest.raises(FileFormatError):
        behavior_from_dict(data)


def test_a_renamed_key_is_named_in_the_refusal():
    data = behavior_to_dict(table1_box())
    data["p"]["9|9"] = data["p"].pop("0|1")
    with pytest.raises(FileFormatError, match=re.escape("'0|1'")):
        behavior_from_dict(data)


def test_a_key_beside_every_setting_pair_is_refused():
    data = behavior_to_dict(table1_box())
    data["p"]["9|9"] = data["p"]["0|1"]
    with pytest.raises(FileFormatError, match="5 keys"):
        behavior_from_dict(data)


def _oversized(kind: str) -> dict:
    """A file of the kind with 500 labels per side and an empty table: a
    few KB of labels that name 250 000 setting pairs."""
    labels = [str(i) for i in range(500)]
    data = {"settings_a": labels, "settings_b": labels, "outcomes_x": ["0", "1"], "outcomes_y": ["0", "1"]}
    if kind == "model":
        data["pairs"] = [{"u": "u", "v": "v", "weight": "1", "p": {}}]
    else:
        data["p" if kind == "box" else "c"] = {}
    return data


@pytest.mark.parametrize(
    "kind, parse", [("box", behavior_from_dict), ("expression", expression_from_dict), ("model", model_from_dict)]
)
def test_a_key_check_costs_no_more_than_the_file(kind, parse):
    data = _oversized(kind)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as refusal:
            parse(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(str(refusal.value)) < 500


def test_bad_scalar_string_rejected():
    data = behavior_to_dict(table1_box())
    data["p"]["0|1"][0][0] = "1/4 + nonsense"
    with pytest.raises(FileFormatError):
        behavior_from_dict(data)


def test_a_repeated_malformed_cell_is_reported_where_it_first_appears():
    data = model_to_dict(appendix_a_model())
    data["pairs"][1]["p"]["0|3"][1][0] = "1/4 + nonsense"
    data["pairs"][3]["p"]["2|1"][0][1] = "1/4 + nonsense"
    with pytest.raises(FileFormatError, match=r"pairs\[1\]\.p\['0\|3'\]\[1\]\[0\]"):
        model_from_dict(data)


@pytest.mark.parametrize("cell", [["1/2"], {"1/2": "1/2"}, 1, None])
def test_a_cell_that_is_not_a_string_is_refused(cell):
    # A list or dict cannot key the table of cells already parsed; it must
    # still be a format error, in the first kernel or in a later one.
    for index in (0, 2):
        data = model_to_dict(appendix_a_model())
        data["pairs"][index]["p"]["2|3"][1][1] = cell
        with pytest.raises(FileFormatError, match=rf"pairs\[{index}\]\.p\['2\|3'\]\[1\]\[1\]: expected a scalar string"):
            model_from_dict(data)


def test_a_model_file_parses_each_distinct_cell_string_once(monkeypatch):
    import hvlab.formats

    data = model_to_dict(appendix_a_model())
    cells = [cell for pair in data["pairs"] for block in pair["p"].values() for row in block for cell in row]
    parsed = []
    original = hvlab.formats.parse_scalar
    monkeypatch.setattr(hvlab.formats, "parse_scalar", lambda text: parsed.append(text) or original(text))
    model = model_from_dict(data)
    weights = [pair["weight"] for pair in data["pairs"]]
    assert sorted(parsed) == sorted(weights + sorted(set(cells)))
    assert model == appendix_a_model()


def test_a_box_file_is_validated_where_it_is_read():
    data = behavior_to_dict(table1_box())
    data["p"]["0|1"][0][0] = "1"  # breaks normalization
    with pytest.raises(InvalidBehavior) as refusal:
        behavior_from_dict(data)
    assert str(refusal.value) == "row (0,1) sums to 7/4-1/8*sqrt2"


def test_model_weight_validation():
    data = model_to_dict(appendix_a_model())
    data["pairs"][0]["weight"] = "1/2"
    with pytest.raises(InvalidModel):
        model_from_dict(data)


def test_sniff_kind():
    assert sniff_kind(behavior_to_dict(pr_box())) == "box"
    assert sniff_kind(model_to_dict(appendix_a_model())) == "model"
    assert sniff_kind(expression_to_dict(chsh())) == "expression"
    with pytest.raises(FileFormatError):
        sniff_kind({"weird": 1})
    with pytest.raises(FileFormatError):
        sniff_kind([1, 2, 3])


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_bytes(b"\x00\xff not json")
    with pytest.raises(FileFormatError):
        load_box(path)
    path2 = tmp_path / "missing.json"
    with pytest.raises(FileFormatError):
        load_box(path2)


@pytest.mark.parametrize(
    "save, value",
    [(save_box, table1_box()), (save_model, appendix_a_model()), (save_expression, chsh())],
    ids=["box", "model", "expression"],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_unwritable_path_is_a_file_format_error(tmp_path, save, value, target):
    path = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
    with pytest.raises(FileFormatError, match=f"^cannot write {path}: ") as caught:
        save(value, path)
    assert isinstance(caught.value.__cause__, OSError)


def test_emitted_json_is_stable(tmp_path):
    path_one = tmp_path / "one.json"
    path_two = tmp_path / "two.json"
    save_box(table1_box(), path_one)
    save_box(load_box(path_one), path_two)
    assert path_one.read_text() == path_two.read_text()
    parsed = json.loads(path_one.read_text())
    assert list(parsed) == ["settings_a", "settings_b", "outcomes_x", "outcomes_y", "p"]


# Quotes, backslashes, control characters and non-ASCII ones, lone
# surrogates among them, and the line breaks that str.splitlines knows.
_TEXT = st.text(st.sampled_from('a|"\\/\b\f\n\r\t\x00\x1f\x7f\x85 é€\ud800😀'), max_size=6) | st.text(max_size=4)
_NUMBERS = (
    st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, -1e-300, 5e-324])
)


@st.composite
def _documents(draw):
    """A JSON document whose rows (lists of strings) and blocks (lists of
    rows) recur, as lists and as tuples, at several depths."""
    rows = draw(st.lists(st.lists(_TEXT, max_size=3), min_size=1, max_size=3))
    blocks = draw(st.lists(st.lists(st.sampled_from(rows), max_size=3), min_size=1, max_size=3))
    shared = st.sampled_from(rows + blocks) | st.sampled_from(rows + blocks).map(tuple)
    leaves = _TEXT | _NUMBERS | st.booleans() | st.none() | shared
    return draw(
        st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(_TEXT, inner, max_size=4),
            max_leaves=40,
        )
    )


@given(_documents())
@settings(max_examples=300, deadline=None)
def test_dump_json_writes_the_bytes_of_json_dumps(document):
    text = dump_json(document)
    assert text == json.dumps(document, indent=2) + "\n"
    # cli._emit prints a report line by line and relies on this.
    assert text.splitlines() == text.split("\n")[:-1]


def test_dump_json_writes_keys_that_are_not_strs_as_json_dumps_does():
    document = {1: [], 1.5: {}, True: (), None: -0.0, math.inf: [math.nan]}
    assert dump_json(document) == json.dumps(document, indent=2) + "\n"
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        dump_json({(1, 2): "x"})


def test_dump_json_renders_each_repeated_row_and_block_once(monkeypatch):
    import hvlab.formats

    quoted = []
    monkeypatch.setattr(hvlab.formats, "_quote", lambda text: quoted.append(text) or json.dumps(text))
    block = [["1/2", "0"], ["0", "1/2"]]
    document = {"p": {f"{k}": [list(row) for row in block] for k in range(50)}, "rows": [["1/2", "0"]] * 50}
    assert dump_json(document) == json.dumps(document, indent=2) + "\n"
    # The 52 keys, the four cells of the block and the two of the row.
    assert len(quoted) == 2 + 50 + 4 + 2


# -- every refusal of a file, with its exact message --------------------------
# Each case edits a valid file in one place and names the message it must
# get; a model file's pair entries and w entries are read by shared code,
# so every refusal of either level is pinned here.


def _set(path, value):
    """An edit that sets ``data[path[0]]...[path[-1]] = value``."""

    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return edit


def _box_file():
    return behavior_to_dict(table1_box())


def _model_file():
    return model_to_dict(appendix_a_model())


def _extended_file():
    return model_to_dict(_extended_model())


def _same_pair_twice(data):
    data["pairs"][1]["u"], data["pairs"][1]["v"] = data["pairs"][0]["u"], data["pairs"][0]["v"]


def _kernel_and_extension(data):
    data["pairs"][0]["p"] = data["pairs"][1]["w_extension"][0]["p"]


_W = ("pairs", 0, "w_extension")

_REFUSALS = {
    "box-label-not-a-string": (
        behavior_from_dict, _box_file, _set(("settings_a",), ["0", 2]), "settings_a entries must be non-empty strings"
    ),
    "box-label-twice": (
        behavior_from_dict, _box_file, _set(("settings_b",), ["1", "1"]), "settings_b: duplicate labels in ('1', '1')"
    ),
    "box-table-not-an-object": (behavior_from_dict, _box_file, _set(("p",), []), "p must be an object keyed by 'a|b'"),
    "expression-table-not-an-object": (
        expression_from_dict,
        lambda: expression_to_dict(chsh()),
        _set(("c",), "0"),
        "c must be an object keyed by 'a|b'",
    ),
    "model-label-twice": (
        model_from_dict, _model_file, _set(("outcomes_x",), ["+1", "+1"]), "outcomes_x: duplicate labels in ('+1', '+1')"
    ),
    "model-not-an-object": (model_from_dict, lambda: [], lambda data: None, "model file must contain a JSON object"),
    "model-keys": (
        model_from_dict, _model_file, _set(("p",), {}), "model file: missing keys [], unknown keys ['p']"
    ),
    "pairs-empty": (model_from_dict, _model_file, _set(("pairs",), []), "pairs must be a non-empty array"),
    "pairs-not-an-array": (model_from_dict, _model_file, _set(("pairs",), {}), "pairs must be a non-empty array"),
    "pair-not-an-object": (model_from_dict, _model_file, _set(("pairs", 1), "u1"), "pairs[1] must be an object"),
    "pair-keys": (
        model_from_dict, _model_file, _set(("pairs", 2, "q"), "1"), "pairs[2]: missing keys [], unknown keys ['q']"
    ),
    "pair-without-kernel": (
        model_from_dict,
        _model_file,
        lambda data: data["pairs"][3].pop("p"),
        "pairs[3]: missing keys ['p'], unknown keys []",
    ),
    "pair-with-kernel-and-extension": (
        model_from_dict, _extended_file, _kernel_and_extension, "pairs[0]: missing keys [], unknown keys ['p']"
    ),
    "pair-label-not-a-string": (
        model_from_dict, _model_file, _set(("pairs", 0, "u"), 0), "pairs[0]: u and v must be non-empty strings"
    ),
    "pair-label-empty": (
        model_from_dict, _extended_file, _set(("pairs", 1, "v"), ""), "pairs[1]: u and v must be non-empty strings"
    ),
    "pair-weight-not-a-string": (
        model_from_dict,
        _model_file,
        _set(("pairs", 2, "weight"), 0.25),
        "pairs[2].weight: expected a scalar string, got float",
    ),
    "pair-kernel-not-an-object": (
        model_from_dict, _model_file, _set(("pairs", 1, "p"), []), "pairs[1].p must be an object keyed by 'a|b'"
    ),
    "pair-twice": (model_from_dict, _model_file, _same_pair_twice, "model file: duplicate hidden pairs"),
    "extension-empty": (
        model_from_dict, _extended_file, _set(_W, []), "pairs[0].w_extension must be a non-empty array"
    ),
    "extension-not-an-array": (
        model_from_dict, _extended_file, _set(_W, {}), "pairs[0].w_extension must be a non-empty array"
    ),
    "w-entry-not-an-object": (
        model_from_dict, _extended_file, _set((*_W, 1), "w1"), "pairs[0].w_extension[1] must be an object"
    ),
    "w-entry-keys": (
        model_from_dict,
        _extended_file,
        lambda data: data["pairs"][0]["w_extension"][1].pop("p"),
        "pairs[0].w_extension[1]: missing keys ['p'], unknown keys []",
    ),
    "w-not-a-string": (
        model_from_dict, _extended_file, _set((*_W, 0, "w"), 0), "pairs[0].w_extension[0]: w must be a non-empty string"
    ),
    "w-empty": (
        model_from_dict, _extended_file, _set((*_W, 1, "w"), ""), "pairs[0].w_extension[1]: w must be a non-empty string"
    ),
    "w-twice": (
        model_from_dict,
        _extended_file,
        _set((*_W, 1, "w"), "w0"),
        "pairs[0].w_extension: duplicate labels in ('w0', 'w0')",
    ),
    "w-weight-not-a-string": (
        model_from_dict,
        _extended_file,
        _set(("pairs", 1, "w_extension", 0, "weight"), 1),
        "pairs[1].w_extension[0].weight: expected a scalar string, got int",
    ),
    "w-kernel-not-an-object": (
        model_from_dict,
        _extended_file,
        _set((*_W, 1, "p"), "p"),
        "pairs[0].w_extension[1].p must be an object keyed by 'a|b'",
    ),
}


@pytest.mark.parametrize("parse, original, edit, message", _REFUSALS.values(), ids=list(_REFUSALS))
def test_every_file_refusal_has_its_message(parse, original, edit, message):
    data = original()
    edit(data)
    with pytest.raises(FileFormatError) as refusal:
        parse(data)
    assert str(refusal.value) == message


# A file with several faults reports one of them: all pair heads (labels and
# weight) first, then the bodies in pair order, each w entry's head before
# its table, a repeated w value after the tables of its pair, and the model's
# structure last.
_FIRST_REFUSALS = {
    "a-later-head-before-an-earlier-kernel": (
        _model_file,
        (_set(("pairs", 0, "p", "0|1", 0, 0), "x"), _set(("pairs", 3, "weight"), 1)),
        "pairs[3].weight: expected a scalar string, got int",
    ),
    "a-later-head-before-an-earlier-extension": (
        _extended_file,
        (_set(_W, []), _set(("pairs", 1, "u"), "")),
        "pairs[1]: u and v must be non-empty strings",
    ),
    "an-earlier-kernel-before-a-later-one": (
        _model_file,
        (_set(("pairs", 2, "p"), []), _set(("pairs", 1, "p", "2|3", 1, 1), 0)),
        "pairs[1].p['2|3'][1][1]: expected a scalar string, got int",
    ),
    "an-extension-before-a-later-plain-kernel": (
        _extended_file,
        (_set(("pairs", 1, "w_extension", 0, "p"), []), _set((*_W, 1, "w"), "")),
        "pairs[0].w_extension[1]: w must be a non-empty string",
    ),
    "a-plain-kernel-before-a-later-extension": (
        lambda: {**_extended_file(), "pairs": [_model_file()["pairs"][0], _extended_file()["pairs"][0]]},
        (_set(("pairs", 0, "p"), []), _set(("pairs", 1, "w_extension"), [])),
        "pairs[0].p must be an object keyed by 'a|b'",
    ),
    "a-w-head-before-its-table": (
        _extended_file,
        (_set((*_W, 0, "p"), []), _set((*_W, 0, "weight"), None)),
        "pairs[0].w_extension[0].weight: expected a scalar string, got NoneType",
    ),
    "an-earlier-w-table-before-a-later-w-head": (
        _extended_file,
        (_set((*_W, 0, "p"), []), _set((*_W, 1, "w"), 1)),
        "pairs[0].w_extension[0].p must be an object keyed by 'a|b'",
    ),
    "a-w-table-before-a-repeated-w": (
        _extended_file,
        (_set((*_W, 1, "w"), "w0"), _set((*_W, 1, "p"), [])),
        "pairs[0].w_extension[1].p must be an object keyed by 'a|b'",
    ),
    "a-repeated-w-before-a-later-pair": (
        _extended_file,
        (_set((*_W, 1, "w"), "w0"), _set(("pairs", 1, "w_extension", 0, "p"), [])),
        "pairs[0].w_extension: duplicate labels in ('w0', 'w0')",
    ),
    "a-kernel-before-the-model-structure": (
        _model_file,
        (_same_pair_twice, _set(("pairs", 3, "p"), [])),
        "pairs[3].p must be an object keyed by 'a|b'",
    ),
}


@pytest.mark.parametrize("original, edits, message", _FIRST_REFUSALS.values(), ids=list(_FIRST_REFUSALS))
def test_a_file_with_several_faults_reports_the_first_in_reading_order(original, edits, message):
    data = original()
    for edit in edits:
        edit(data)
    with pytest.raises(FileFormatError) as refusal:
        model_from_dict(data)
    assert str(refusal.value) == message


def test_an_extended_file_parses_each_distinct_string_once_and_formats_each_value_once(monkeypatch):
    import hvlab.formats

    formatted, parsed = [], []
    original_format, original_parse = hvlab.formats.format_scalar, hvlab.formats.parse_scalar
    monkeypatch.setattr(hvlab.formats, "format_scalar", lambda value: formatted.append(value) or original_format(value))
    data = model_to_dict(_extended_model())
    assert sorted(map(format_scalar, formatted)) == ["0", "1", "1/2"]
    monkeypatch.setattr(hvlab.formats, "parse_scalar", lambda text: parsed.append(text) or original_parse(text))
    assert model_from_dict(data) == _extended_model()
    # Weights are parsed as they are read; table cells once per distinct string.
    weights = ["1/2", "1/2", "1/2", "1/2", "1"]
    assert sorted(parsed) == sorted(weights + ["0", "1"])
