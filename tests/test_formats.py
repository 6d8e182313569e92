"""File formats: canonical round trips, schema strictness, scalar strings."""

import json
import re
import tracemalloc

import pytest

from helpers import CHSH_SPACES
from hvlab.bell import chsh
from hvlab.boxes import Behavior, LabelSet
from hvlab.catalog import appendix_a_model, entries, pr_box, table1_box
from hvlab.errors import FileFormatError, InvalidBehavior, InvalidModel
from hvlab.formats import (
    behavior_from_dict,
    behavior_to_dict,
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


def test_validation_enforced_by_default_but_optional():
    data = behavior_to_dict(table1_box())
    data["p"]["0|1"][0][0] = "1"  # breaks normalization
    with pytest.raises(InvalidBehavior):
        behavior_from_dict(data)
    box = behavior_from_dict(data, require_valid=False)
    assert box.p("0", "1", "+1", "+1") == ONE


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
