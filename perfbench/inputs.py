"""Seeded input generator for the four workloads.

Inputs are built with hvlab's public constructors and are a pure
function of (workload, seed, round): each round draws from its own
``random.Random`` keyed by that triple, so the same seed gives the same
inputs whatever the pool size.  Every generated box is checked valid
and no-signalling before any timing starts.

A rung is written settings-per-side x outcomes-per-side: 3322 has three
settings and two outcomes on each side.  ``kind`` says whether the
numbers are purely rational or carry sqrt2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

RUNGS = {
    "2222": (2, 2, 2, 2),
    "3322": (3, 3, 2, 2),
    "2233": (2, 2, 3, 3),
    "4422": (4, 4, 2, 2),
    "3333": (3, 3, 3, 3),
}
KINDS = ("rational", "sqrt2")
# Marks a slot whose kind alternates with the round number.
ALTERNATE = "alternate"

# One round per workload, as (rung, kind, fully_local) slots.  The cheap
# rung is the majority of every round so the median item sits inside one
# cost cluster rather than in the gap between two; the fully local boxes
# are all on the big rungs, so that cluster is of one kind of box.
CONTENT_ROUND = (
    ("2222", "rational", False),
    ("3322", "rational", False),
    ("2222", "sqrt2", False),
    ("2233", "rational", False),
    ("2222", "rational", False),
    ("3322", "sqrt2", False),
    ("2222", "sqrt2", False),
    ("2233", "sqrt2", False),
    ("2222", "rational", False),
    ("3322", ALTERNATE, True),
    ("2222", "sqrt2", False),
    ("2233", ALTERNATE, True),
    ("2222", "rational", False),
    ("2222", "sqrt2", False),
    ("2222", "rational", False),
    ("2222", "sqrt2", False),
)
# Weights of the non-local box in a `content` box, by kind (times sqrt2
# for the sqrt2 kind).  The LP's cost depends strongly on this weight
# (3322: about 0.25 s at 7/10, 0.65 s at 4/10), so each slot steps
# through the levels round by round rather than drawing one: every five
# rounds give each slot every level once, and runs on different seeds
# time the same spread of weights.
NONLOCAL_LEVELS = {"rational": (3, 4, 5, 6, 7), "sqrt2": (2, 3, 4, 5, 6)}
NSBOUND_ROUND = (
    ("2222", "rational", False),
    ("3322", ALTERNATE, False),
    ("2222", "sqrt2", False),
    ("2233", "rational", False),
    ("2222", "rational", False),
    ("2222", "sqrt2", False),
    ("2233", "sqrt2", False),
    ("2222", "rational", False),
    ("2222", "sqrt2", False),
)
LOCALBOUND_ROUND = (
    ("3322", "rational", False),
    ("4422", "rational", False),
    ("3322", "sqrt2", False),
    ("3333", "rational", False),
    ("3322", "rational", False),
    ("4422", "sqrt2", False),
    ("3322", "sqrt2", False),
    ("3333", "sqrt2", False),
    ("3322", "rational", False),
    ("3322", "sqrt2", False),
)
MODEL_PAIRS = 40


class GeneratorError(Exception):
    """A generated input failed its validity check; a benchmark bug."""


@dataclass
class Item:
    """One unit of work: a box, an expression or one CLI command."""

    workload: str
    round: int
    slot: int
    rung: str
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.round}.{self.slot}"


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"hvlab-perfbench/{workload}/{seed}/{round_index}")


def spaces(hv, rung: str):
    na, nb, nx, ny = RUNGS[rung]
    label_set = hv.LabelSet
    return (
        label_set(tuple(f"a{i}" for i in range(na))),
        label_set(tuple(f"b{i}" for i in range(nb))),
        label_set(tuple(f"x{i}" for i in range(nx))),
        label_set(tuple(f"y{i}" for i in range(ny))),
    )


def _slot_kind(kind: str, round_index: int) -> str:
    return KINDS[round_index % 2] if kind == ALTERNATE else kind


def pr_type_box(hv, sp):
    """PR-type correlations on the first two settings of each side
    (y - x = a*b mod d), uniform statistics on every other setting pair.
    All one-side marginals are uniform, so the box is no-signalling."""
    sa, sb, ox, oy = sp
    d = len(ox)
    one_over_d = hv.Scalar(Fraction(1, d))
    uniform = hv.Scalar(Fraction(1, d * d))

    def cell(a, b, x, y):
        ia, ib = sa.position(a), sb.position(b)
        if ia < 2 and ib < 2:
            return one_over_d if (oy.position(y) - ox.position(x)) % d == (ia * ib) % d else hv.ZERO
        return uniform

    return hv.Behavior.from_function(*sp, cell)


def _random_vertex(hv, rng: random.Random, sp):
    sa, sb, ox, oy = sp
    return hv.deterministic_behavior(
        *sp,
        tuple(rng.choice(ox.labels) for _ in sa),
        tuple(rng.choice(oy.labels) for _ in sb),
    )


def _saturating_vertex(hv, rng: random.Random, sp):
    """A random deterministic vertex that attains 3, the local maximum of
    the PR-type functional I = sum over a, b < 2 of P(y - x = a*b mod d | a, b).
    Outputs on the other settings are free."""
    sa, sb, ox, oy = sp
    d = len(ox)
    while True:
        xs = [rng.randrange(d) for _ in sa]
        ys = [rng.randrange(d) for _ in sb]
        if sum((ys[b] - xs[a]) % d == (a * b) % d for a in (0, 1) for b in (0, 1)) == 3:
            return hv.deterministic_behavior(
                *sp, tuple(ox.labels[i] for i in xs), tuple(oy.labels[i] for i in ys)
            )


def _split(hv, rng: random.Random, rest, count: int) -> list:
    """``count`` positive rational shares of ``rest``."""
    raw = [rng.randint(1, 6) for _ in range(count)]
    total = sum(raw)
    return [rest * hv.Scalar(Fraction(r, total)) for r in raw]


def content_box(hv, rng: random.Random, sp, kind: str, local: bool, level: int | None = None):
    """w times the PR-type box plus (1 - w) times a mixture of four
    saturating vertices; w = 0 for a fully local box.  ``level`` picks w
    from NONLOCAL_LEVELS; without it w is drawn.

    Returns the box and its exact maximal local content, 1 - w: the box
    has I = 3 + w, and any split p * local + (1 - p) * no-signalling has
    I <= 3p + 4(1 - p), so p <= 1 - w, while the construction attains it.
    """
    sqrt2 = hv.Scalar(Fraction(0), Fraction(1))
    components = []
    if local:
        rest = hv.ONE
        if kind == "sqrt2":
            first = sqrt2 * hv.Scalar(Fraction(rng.randint(1, 6), 10))
            components.append((first, _saturating_vertex(hv, rng, sp)))
            rest = hv.ONE - first
        weights = _split(hv, rng, rest, 4 - len(components))
        content = hv.ONE
    else:
        if level is not None:
            tenths = NONLOCAL_LEVELS[kind][level % len(NONLOCAL_LEVELS[kind])]
        else:
            tenths = rng.randint(2, 6) if kind == "sqrt2" else rng.randint(3, 8)
        w_nl = hv.Scalar(Fraction(tenths, 10))
        if kind == "sqrt2":
            w_nl = sqrt2 * w_nl
        components.append((w_nl, pr_type_box(hv, sp)))
        content = hv.ONE - w_nl
        weights = _split(hv, rng, content, 4)
    components += [(w, _saturating_vertex(hv, rng, sp)) for w in weights]
    return hv.mix(components), content


def expression(hv, rng: random.Random, rung: str, kind: str):
    """Integer coefficients in [-2, 2]; the sqrt2 kind adds b*sqrt2, b in [-1, 1]."""
    sp = spaces(hv, rung)
    size = 1
    for space in sp:
        size *= len(space)
    coefficients = tuple(
        hv.Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1) if kind == "sqrt2" else 0))
        for _ in range(size)
    )
    return hv.BellExpression(*sp, coefficients)


def cli_model(hv, rng: random.Random, kind: str):
    """A local model on 3322 with MODEL_PAIRS hidden pairs.

    Kernels are deterministic vertices, the PR-type box, or an even
    mixture of the two, so every kernel is no-signalling.
    """
    sp = spaces(hv, "3322")
    nonlocal_box = pr_type_box(hv, sp)
    half = hv.Scalar(Fraction(1, 2))
    kernels = []
    for _ in range(MODEL_PAIRS):
        choice = rng.randrange(3)
        if choice == 0:
            kernels.append(_random_vertex(hv, rng, sp))
        elif choice == 1:
            kernels.append(nonlocal_box)
        else:
            kernels.append(hv.mix([(half, nonlocal_box), (half, _random_vertex(hv, rng, sp))]))
    weights = []
    rest = hv.ONE
    if kind == "sqrt2":
        first = hv.Scalar(Fraction(0), Fraction(rng.randint(1, 4), 40))
        weights.append(first)
        rest = hv.ONE - first
    weights += _split(hv, rng, rest, MODEL_PAIRS - len(weights))
    pairs = tuple((f"u{i}", f"v{i % 7}") for i in range(MODEL_PAIRS))
    return hv.HiddenVariableModel(pairs, tuple(weights), tuple(kernels))


def check_box(hv, box) -> None:
    report = hv.validate_behavior(box)
    if not report.ok:
        raise GeneratorError(f"generated box is invalid: {report.summary()}")
    ok, witness = hv.is_no_signalling(box)
    if not ok:
        raise GeneratorError(f"generated box signals: {witness.describe()}")


def _slot_items(hv, workload: str, seed: int, rounds: int, layout) -> list[Item]:
    items = []
    for r in range(rounds):
        rng = round_rng(workload, seed, r)
        for slot, (rung, kind, local) in enumerate(layout):
            kind = _slot_kind(kind, r)
            item = Item(workload, r, slot, rung, kind)
            if workload == "content":
                box, content = content_box(hv, rng, spaces(hv, rung), kind, local, r + slot)
                check_box(hv, box)
                item.data.update(box=box, content=content)
            else:
                item.data["expression"] = expression(hv, rng, rung, kind)
                if workload == "nsbound":
                    box, _ = content_box(hv, rng, spaces(hv, rung), kind, False)
                    check_box(hv, box)
                    item.data["box"] = box
            items.append(item)
    return items


CLI_COMMANDS = (
    "catalog_list",
    "check_box",
    "check_model_alone",
    "check_model",
    "bell_chsh",
    "decompose",
    "model_verify",
    "model_guess",
    "model_first_mover",
)
# Commands whose inputs are 2222 files; the others but `catalog list`
# (no input, rung "catalog") read the 3322 files.
CLI_2222 = ("bell_chsh", "decompose")


def cli_argv(command: str, files: dict[str, str]) -> list[str]:
    return {
        "catalog_list": ["catalog", "list"],
        "check_box": ["check", files["box"]],
        "check_model_alone": ["check", files["model"]],
        "check_model": ["check", files["model"], "--against", files["box"]],
        "bell_chsh": ["bell", "chsh", files["box2222"]],
        "decompose": ["decompose", files["box2222"], "--verify", "--emit-model", files["emitted"]],
        "model_verify": ["model", "verify", files["model"], "--against", files["box"]],
        "model_guess": ["model", "guess", files["model"], "--side", "A"],
        "model_first_mover": ["model", "first-mover", files["model"]],
    }[command] + ["--format", "json"]


def _cli_items(hv, seed: int, rounds: int, workdir: Path) -> list[Item]:
    """Write each round's files with hvlab.formats; one item per command."""
    formats = hv.formats
    items = []
    for r in range(rounds):
        rng = round_rng("cli", seed, r)
        kind = KINDS[r % 2]
        model = cli_model(hv, rng, kind)
        local, witness = hv.check_locality(model)
        if not local:
            raise GeneratorError(f"generated model is not local: {witness.describe()}")
        box = hv.reconstruct(model)
        check_box(hv, box)
        # `bell chsh` needs the CHSH labels, so the 2222 box uses them.
        box2222, content = content_box(hv, rng, hv.chsh().spaces, kind, False)
        check_box(hv, box2222)
        files = {
            "box": str(workdir / f"r{r}.box.json"),
            "model": str(workdir / f"r{r}.model.json"),
            "box2222": str(workdir / f"r{r}.box2222.json"),
            "emitted": str(workdir / f"r{r}.emitted.model.json"),
        }
        formats.save_box(box, files["box"])
        formats.save_model(model, files["model"])
        formats.save_box(box2222, files["box2222"])
        objects = {"model": model, "box": box, "box2222": box2222, "content": content}
        for slot, command in enumerate(CLI_COMMANDS):
            rung = "catalog" if command == "catalog_list" else "2222" if command in CLI_2222 else "3322"
            item = Item("cli", r, slot, rung, kind)
            item.data.update(command=command, argv=cli_argv(command, files), files=files, objects=objects)
            items.append(item)
    return items


LAYOUTS = {"content": CONTENT_ROUND, "nsbound": NSBOUND_ROUND, "localbound": LOCALBOUND_ROUND}


def generate(hv, workload: str, seed: int, rounds: int, workdir: Path | None = None) -> list[Item]:
    """All items of ``rounds`` rounds, in execution order."""
    if workload == "cli":
        if workdir is None:
            raise ValueError("the cli workload writes its inputs and needs a work directory")
        return _cli_items(hv, seed, rounds, workdir)
    return _slot_items(hv, workload, seed, rounds, LAYOUTS[workload])
