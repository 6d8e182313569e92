"""JSON file formats for boxes, models and Bell expressions.

JSON is the container; every number is a string in the exact scalar
grammar, because raw JSON numbers cannot represent sqrt(2).  Boxes and
expressions are both :class:`~hvlab.boxes.Tensor` files and share one
codec: the four label arrays plus one table under ``"p"`` (a box) or
``"c"`` (an expression).  A model file holds the label arrays and a
``"pairs"`` list, and its entries at both levels have one shape,
``{labels..., "weight", "p"}``: the labels (u and v for a hidden pair,
w for a value of a pair's extra variable), a weight and a kernel table.
A pair entry may hold, in place of ``"p"``, a ``"w_extension"`` list of
w entries.  One reader and one writer serve the entries of both levels.
A table is a map keyed by the literal setting labels joined with "|",
which is why labels may not contain that character, to |X| x |Y|
arrays.  Serialization emits canonical scalar strings, so
parse -> serialize -> parse is the identity.  As parsing reads each
distinct cell string once per file, serialization formats each distinct
value once per file: the tables and weights of one file share a map
from canonical triple to text.  Files, and the CLI's JSON reports, are
written by :func:`dump_json` as two-space-indented JSON, byte for byte
what ``json.dumps(..., indent=2)`` writes, with each repeated row and
block rendered once per file.
"""

from __future__ import annotations

import json
from itertools import chain, product
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any

from .bell import BellExpression
from .boxes import Behavior, LabelSet, Spaces, Tensor, require_valid_behavior
from .errors import FileFormatError, HvlabError, InvalidModel
from .hvmodel import ExtendedModel, HiddenVariableModel, WExtension, require_valid_model
from .scalar import ONE, Scalar, format_scalar, parse_scalar

_SPACE_KEYS = ("settings_a", "settings_b", "outcomes_x", "outcomes_y")

# The text of each value written so far to one file, keyed by its canonical triple.
_Formatted = dict[tuple[int, int, int], str]


def _parse_label_array(data: Any, key: str) -> LabelSet:
    if not isinstance(data, list) or not data:
        raise FileFormatError(f"{key} must be a non-empty array of strings")
    for label in data:
        if not isinstance(label, str) or not label:
            raise FileFormatError(f"{key} entries must be non-empty strings")
        if "|" in label:
            raise FileFormatError(f"label {label!r} in {key} contains the reserved character '|'")
    try:
        return LabelSet(tuple(data))
    except ValueError as exc:
        raise FileFormatError(f"{key}: {exc}") from exc


def _parse_spaces(data: dict[str, Any]) -> Spaces:
    return tuple(_parse_label_array(data.get(key), key) for key in _SPACE_KEYS)


def _parse_cell(text: Any, where: str) -> Scalar:
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: expected a scalar string, got {type(text).__name__}")
    try:
        return parse_scalar(text)
    except HvlabError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _parse_table(data: Any, spaces: Spaces, where: str, parsed: dict[str, Scalar]) -> tuple[Scalar, ...]:
    """The row-major table of one ``"p"`` or ``"c"`` object.  ``parsed``
    maps each cell string already read to its Scalar; the tables of one
    file share it, so each distinct string is parsed once."""
    settings_a, settings_b, outcomes_x, outcomes_y = spaces
    if not isinstance(data, dict):
        raise FileFormatError(f"{where} must be an object keyed by 'a|b'")
    # Count first, so the check costs no more than the file's own size.
    pairs = len(settings_a) * len(settings_b)
    if len(data) != pairs:
        raise FileFormatError(f"{where} has {len(data)} keys, expected one 'a|b' per setting pair ({pairs})")
    table: list[Scalar] = []
    for a in settings_a:
        for b in settings_b:
            if f"{a}|{b}" not in data:
                raise FileFormatError(f"{where} lacks the key '{a}|{b}' and has one that is not a setting pair")
            block = data[f"{a}|{b}"]
            if (
                not isinstance(block, list)
                or len(block) != len(outcomes_x)
                or any(not isinstance(row, list) or len(row) != len(outcomes_y) for row in block)
            ):
                raise FileFormatError(
                    f"{where}['{a}|{b}'] must be a {len(outcomes_x)}x{len(outcomes_y)} array"
                )
            for ix, row in enumerate(block):
                for iy, cell in enumerate(row):
                    value = parsed.get(cell) if isinstance(cell, str) else None
                    if value is None:
                        # Only a string gets past _parse_cell, so only strings are keys.
                        value = parsed[cell] = _parse_cell(cell, f"{where}['{a}|{b}'][{ix}][{iy}]")
                    table.append(value)
    return tuple(table)


def _serialize_table(tensor: Tensor, formatted: _Formatted) -> dict[str, list[list[str]]]:
    """The ``"p"`` or ``"c"`` object of one table, cut from the flat
    row-major table in slices; ``formatted`` is shared by one file's tables."""
    nx, ny = len(tensor.outcomes_x), len(tensor.outcomes_y)
    texts = [_text(value, formatted) for value in tensor.table]
    rows = [texts[i : i + ny] for i in range(0, len(texts), ny)]
    blocks = [rows[i : i + nx] for i in range(0, len(rows), nx)]
    pairs = product(tensor.settings_a, tensor.settings_b)
    return {f"{a}|{b}": block for (a, b), block in zip(pairs, blocks)}


def _text(value: Scalar, formatted: _Formatted) -> str:
    """``format_scalar(value)``, kept in ``formatted`` under the value's
    canonical triple; a file's values share one such map, so each distinct
    value is formatted once per file."""
    text = formatted.get(value._v)
    if text is None:
        text = formatted[value._v] = format_scalar(value)
    return text


def _require_keys(data: dict[str, Any], required: set[str], what: str) -> None:
    keys = set(data.keys())
    missing = required - keys
    unknown = keys - required
    if missing or unknown:
        raise FileFormatError(f"{what}: missing keys {sorted(missing)}, unknown keys {sorted(unknown)}")


def _spaces_dict(spaces: Spaces) -> dict[str, Any]:
    for space in spaces:
        for label in space:
            if "|" in label:
                raise FileFormatError(f"label {label!r} contains the reserved character '|'")
    return {key: list(space.labels) for key, space in zip(_SPACE_KEYS, spaces)}


def _tensor_to_dict(tensor: Tensor, key: str) -> dict[str, Any]:
    data = _spaces_dict(tensor.spaces)
    data[key] = _serialize_table(tensor, {})
    return data


def _tensor_from_dict(data: Any, cls: type[Tensor], key: str, what: str) -> Any:
    if not isinstance(data, dict):
        raise FileFormatError(f"{what} must contain a JSON object")
    _require_keys(data, set(_SPACE_KEYS) | {key}, what)
    spaces = _parse_spaces(data)
    return cls(*spaces, _parse_table(data[key], spaces, key, {}))


def behavior_to_dict(behavior: Behavior) -> dict[str, Any]:
    return _tensor_to_dict(behavior, "p")


def behavior_from_dict(data: Any) -> Behavior:
    """Parse a box file and validate the box: a box that is not valid is
    refused with InvalidBehavior, whose message lists its problems."""
    behavior = _tensor_from_dict(data, Behavior, "p", "box file")
    require_valid_behavior(behavior)
    return behavior


def expression_to_dict(expression: BellExpression) -> dict[str, Any]:
    return _tensor_to_dict(expression, "c")


def expression_from_dict(data: Any) -> BellExpression:
    return _tensor_from_dict(data, BellExpression, "c", "expression file")


def _entry_to_dict(
    labels: dict[str, str], weight: Scalar, body: Behavior | WExtension, formatted: _Formatted
) -> dict[str, Any]:
    """One weighted entry of a model file: ``labels`` (u and v, or w), the
    weight, and then a kernel as the table ``"p"`` or an extension as the
    list ``"w_extension"`` of its w entries."""
    entry: dict[str, Any] = {**labels, "weight": _text(weight, formatted)}
    if isinstance(body, WExtension):
        entry["w_extension"] = [
            _entry_to_dict({"w": w}, w_weight, kernel, formatted)
            for w, w_weight, kernel in zip(body.values, body.weights, body.kernels)
        ]
    else:
        entry["p"] = _serialize_table(body, formatted)
    return entry


def model_to_dict(model: HiddenVariableModel | ExtendedModel) -> dict[str, Any]:
    data = _spaces_dict(model.spaces)
    formatted: _Formatted = {}
    parts = model.kernels if isinstance(model, HiddenVariableModel) else model.extensions
    data["pairs"] = [
        _entry_to_dict({"u": u, "v": v}, weight, part, formatted)
        for (u, v), weight, part in zip(model.pairs, model.weights, parts)
    ]
    return data


def _entry_head(
    entry: Any, where: str, labels: tuple[str, ...], bodies: tuple[str, ...]
) -> tuple[tuple[str, ...], Scalar]:
    """The labels and weight of one weighted entry of a model file, after
    checking that it is an object with exactly the keys ``labels``,
    ``"weight"`` and one body: the first of ``bodies`` that it has, else
    the last."""
    if not isinstance(entry, dict):
        raise FileFormatError(f"{where} must be an object")
    body = next((key for key in bodies if key in entry), bodies[-1])
    _require_keys(entry, {*labels, "weight", body}, where)
    values = tuple(entry[label] for label in labels)
    if not all(isinstance(value, str) and value for value in values):
        must = "must be non-empty strings" if len(labels) > 1 else "must be a non-empty string"
        raise FileFormatError(f"{where}: {' and '.join(labels)} {must}")
    return values, _parse_cell(entry["weight"], f"{where}.weight")


_ONE_W = LabelSet(("0",))


def _pair_body(entry: dict[str, Any], where: str, spaces: Spaces, parsed: dict[str, Scalar]) -> WExtension:
    """The body of a pair entry whose head has been read, as a w-extension:
    its ``w_extension`` list, or its ``p`` kernel as the extension with the
    one value w = "0".  Each w entry's head is read before its table."""

    def kernel(entry: dict[str, Any], where: str) -> Behavior:
        return Behavior(*spaces, _parse_table(entry["p"], spaces, f"{where}.p", parsed))

    if "w_extension" not in entry:
        return WExtension(_ONE_W, (ONE,), (kernel(entry, where),))
    raw = entry["w_extension"]
    if not isinstance(raw, list) or not raw:
        raise FileFormatError(f"{where}.w_extension must be a non-empty array")
    heads: list[tuple[tuple[str, ...], Scalar]] = []
    kernels: list[Behavior] = []
    for k, sub in enumerate(raw):
        heads.append(_entry_head(sub, f"{where}.w_extension[{k}]", ("w",), ("p",)))
        kernels.append(kernel(sub, f"{where}.w_extension[{k}]"))
    try:
        values = LabelSet(tuple(w for (w,), _ in heads))
    except ValueError as exc:
        raise FileFormatError(f"{where}.w_extension: {exc}") from exc
    return WExtension(values, tuple(weight for _, weight in heads), tuple(kernels))


def model_from_dict(data: Any) -> HiddenVariableModel | ExtendedModel:
    """Parse a model file and validate the model; the result is extended
    iff any pair carries a w_extension (extensionless pairs then get a
    single trivial w).  The head of every pair is read before any pair's
    body.  A model that is not valid is refused with InvalidModel, whose
    message lists its problems; a structure error is a FileFormatError."""
    if not isinstance(data, dict):
        raise FileFormatError("model file must contain a JSON object")
    _require_keys(data, set(_SPACE_KEYS) | {"pairs"}, "model file")
    spaces = _parse_spaces(data)
    entries = data["pairs"]
    if not isinstance(entries, list) or not entries:
        raise FileFormatError("pairs must be a non-empty array")
    heads = [_entry_head(entry, f"pairs[{i}]", ("u", "v"), ("w_extension", "p")) for i, entry in enumerate(entries)]
    pairs, weights = zip(*heads)
    parsed: dict[str, Scalar] = {}
    extensions = tuple(_pair_body(entry, f"pairs[{i}]", spaces, parsed) for i, entry in enumerate(entries))
    try:
        if any("w_extension" in entry for entry in entries):
            model: HiddenVariableModel | ExtendedModel = ExtendedModel(pairs, weights, extensions)
        else:
            model = HiddenVariableModel(pairs, weights, tuple(extension.kernels[0] for extension in extensions))
    except InvalidModel as exc:
        raise FileFormatError(f"model file: {exc}") from exc
    require_valid_model(model)
    return model


# The file codec of each catalog kind that has a file format.
SERIALIZERS = {"behavior": behavior_to_dict, "model": model_to_dict, "expression": expression_to_dict}


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise FileFormatError(f"{path} is not valid UTF-8 text") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # An integer literal past the interpreter's int() digit limit.
        raise FileFormatError(f"{path} holds a number too long to read: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path} nests JSON values too deeply") from exc


def load_box(path: str | Path) -> Behavior:
    return behavior_from_dict(_load_json(path))


def load_model(path: str | Path) -> HiddenVariableModel | ExtendedModel:
    return model_from_dict(_load_json(path))


def load_expression(path: str | Path) -> BellExpression:
    return expression_from_dict(_load_json(path))


def sniff_kind(data: Any) -> str:
    """Classify a parsed JSON document as 'box', 'model' or 'expression'."""
    if isinstance(data, dict):
        if "p" in data:
            return "box"
        if "pairs" in data:
            return "model"
        if "c" in data:
            return "expression"
    raise FileFormatError("file is neither a box, a model nor an expression file")


def _strings(items: list | tuple) -> tuple | None:
    """``items`` as a tuple if every item is a str, or as a tuple of tuples
    if every item is a list or tuple of strs; else None."""
    types = set(map(type, items))
    if types == {str}:
        return tuple(items)
    if types <= {list, tuple} and set(map(type, chain.from_iterable(items))) <= {str}:
        return tuple(map(tuple, items))
    return None


def _key(key: Any) -> str:
    """A dict key as ``json`` writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dump_json(data: Any) -> str:
    """``json.dumps(data, indent=2) + "\\n"``, written in one pass.  Strings
    go through the C escaper that ``json`` uses, so the only line break is
    "\\n", and numbers, booleans, null and empty containers through
    ``json.dumps`` itself.  Within one call each list of strs, and each
    list of such lists, is rendered once per indent and content, so a
    file's repeated rows and blocks are rendered once."""
    rendered: dict[tuple[str, tuple], str] = {}

    def write(value: Any, indent: str) -> str:
        if isinstance(value, str):
            return _quote(value)
        if not isinstance(value, (list, tuple, dict)) or not value:
            return json.dumps(value)
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{_quote(_key(key))}: {write(item, inner)}" for key, item in value.items()]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
        key = (indent, _strings(value))
        text = rendered.get(key)
        if text is None:
            text = "[\n" + inner + (",\n" + inner).join([write(item, inner) for item in value]) + "\n" + indent + "]"
            if key[1] is not None:
                rendered[key] = text
        return text

    return write(data, "") + "\n"


def _save_json(data: dict[str, Any], path: str | Path) -> None:
    try:
        Path(path).write_text(dump_json(data), encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def save_box(behavior: Behavior, path: str | Path) -> None:
    _save_json(behavior_to_dict(behavior), path)


def save_model(model: HiddenVariableModel | ExtendedModel, path: str | Path) -> None:
    _save_json(model_to_dict(model), path)


def save_expression(expression: BellExpression, path: str | Path) -> None:
    _save_json(expression_to_dict(expression), path)
