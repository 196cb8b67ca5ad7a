"""Seeded benchmark inputs and an output check that does not use the program.

Every input is drawn from ``random.Random(seed)`` and written as the model
and suite files a user would hand to ``paircover``; the same seed gives
byte-identical files.  Nothing here calls into ``paircover`` except
:func:`universe_pairs`, which asks ``InteractionUniverse`` for the pairs the
program claims are achievable, so the check can count them on its own.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from dataclasses import dataclass, field

# seq-mixed: SEQ_COPIES models per shape (4-8 factors of 2-5 levels).  The
# shapes are fixed so that a seed changes the constraints and factor order,
# not the problem size: with the pure-Python solver a free draw of that range
# took 3 s to 131 s per model, so one seed's pass could be ten times another's.
# Even fixed, (4, 3, 2, 2, 2, 2, 2, 2) ranged from 3.7k to 7.6k step nodes
# by seed, two thirds of the pass's seed variance, so it is left out.
SEQ_SHAPES = (
    (3, 3, 3, 2),
    (4, 3, 2, 2, 2),
    (3, 3, 3, 2, 2),
    (4, 3, 3, 2, 2),
    (5, 3, 2, 2, 2),
    (4, 4, 2, 2, 2),
    (3, 3, 2, 2, 2, 2),
    (4, 3, 3, 2, 2, 2),
    (5, 2, 2, 2, 2, 2),
    (3, 3, 3, 3, 2, 2),
    (4, 2, 2, 2, 2, 2, 2),
    (3, 3, 3, 2, 2, 2, 2),
    (3, 2, 2, 2, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 2, 2, 2),
)
SEQ_COPIES = 3

# greedy-wide: 12-16 factors of 2-4 levels with dense two-pick avoids; the
# factor count and level mix are fixed per model slot, the seed shuffles them.
GREEDY_MODELS = 12
# Every third greedy-wide model hides an unachievable level: level 2 of
# factor 0 is avoided with both levels of a two-level factor placed after
# TRAP_DEPTH more three-level factors, so each extension search for a pair
# holding that level walks up to 3^TRAP_DEPTH partial cases before it fails.
TRAP_DEPTH = 7

# minimize-redundant: (shape, joined suites) per model.  Each input joins
# that many greedy suites, so the set cover has many redundant rows to drop.
# The reference solver's search for a proven cover grows steeply with the
# joined rows: about 20 rows prove in well under a second, three joined
# suites on (3, 3, 3) take 6-11 s each and 48 joined rows took 77-85 s.
MIN_SHAPES = (
    ((2, 2, 2, 2), 3),
    ((3, 3, 2, 2), 2),
    ((4, 2, 2, 2), 2),
    ((3, 2, 2, 2), 2),
)
MIN_COPIES = 24


@dataclass
class Model:
    """Raw model data: names, levels and constraints as (factor, level) picks."""

    name: str
    factors: list[str]
    levels: list[list[str]]
    avoid: list[tuple[tuple[int, int], ...]] = field(default_factory=list)
    must: list[tuple[tuple[int, int], ...]] = field(default_factory=list)

    @property
    def cards(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def text(self) -> str:
        """The model in paircover's native file grammar."""
        out = [f"# {self.name}"]
        out += [f"{f}: {', '.join(lv)}" for f, lv in zip(self.factors, self.levels)]
        for kw, tuples in (("AVOID", self.avoid), ("MUST", self.must)):
            for t in tuples:
                picks = ", ".join(f"{self.factors[f]}={self.levels[f][v]}" for f, v in t)
                out.append(f"{kw}: {picks}")
        return "\n".join(out) + "\n"


@dataclass
class Item:
    """One unit of a workload: a model and, for minimize, the suite to reduce."""

    model: Model
    suite_csv: str | None = None


def _model(name: str, cards) -> Model:
    return Model(
        name,
        [f"f{i}" for i in range(len(cards))],
        [[f"v{a}" for a in range(c)] for c in cards],
    )


def violates(row, avoid) -> bool:
    return any(all(row[f] == v for f, v in t) for t in avoid)


def random_row(model: Model, rng: random.Random, fixed=None) -> tuple | None:
    """A uniformly ordered depth-first search for one avoid-free full row."""
    cards = model.cards
    row = [None] * len(cards)
    for f, v in (fixed or {}).items():
        row[f] = v
    free = [f for f in range(len(cards)) if row[f] is None]
    by_factor = {f: [t for t in model.avoid if any(g == f for g, _ in t)] for f in free}

    def blocked(f):
        return any(all(row[g] == w for g, w in t) for t in by_factor[f])

    def search(k):
        if k == len(free):
            return True
        f = free[k]
        order = list(range(cards[f]))
        rng.shuffle(order)
        for v in order:
            row[f] = v
            if not blocked(f) and search(k + 1):
                return True
        row[f] = None
        return False

    if violates([-1 if v is None else v for v in row], model.avoid):
        return None
    return tuple(row) if search(0) else None


def _two_pick_avoids(model: Model, rng: random.Random, count: int, free=None, factors=None):
    """``count`` distinct two-pick avoid tuples over ``factors`` (default all),
    never naming a level in ``free``."""
    factors = range(len(model.cards)) if factors is None else factors
    free = free or {}
    out = []
    while len(out) < count:
        f, g = sorted(rng.sample(factors, 2))
        t = ((f, rng.randrange(model.cards[f])), (g, rng.randrange(model.cards[g])))
        if t not in out and all(free.get(h) != v for h, v in t):
            out.append(t)
    return out


def _musts_from_rows(model: Model, rng: random.Random, count: int):
    """Must tuples cut from random valid rows, so each one is extendable."""
    out = []
    for _ in range(count):
        row = random_row(model, rng)
        size = rng.choice((2, 3))
        picks = tuple(sorted((f, row[f]) for f in rng.sample(range(len(row)), size)))
        if picks not in out:
            out.append(picks)
    return out


def seq_mixed(seed: int) -> list[Item]:
    rng = random.Random(f"seq-mixed/{seed}")
    items = []
    for k, shape in enumerate(SEQ_SHAPES * SEQ_COPIES):
        cards = list(shape)
        rng.shuffle(cards)
        model = _model(f"seq-mixed seed {seed} model {k}", cards)
        model.avoid = _two_pick_avoids(model, rng, 1 + k % 3)
        model.must = _musts_from_rows(model, rng, 1 + k % 2)
        items.append(Item(model))
    return items


def greedy_wide(seed: int) -> list[Item]:
    rng = random.Random(f"greedy-wide/{seed}")
    items = []
    for k in range(GREEDY_MODELS):
        n = 12 + k % 5
        if k % 3 == 0:
            trap = TRAP_DEPTH + 1
            rest = [2 + i % 3 for i in range(n - trap - 1)]
            rng.shuffle(rest)
            cards = [3] * trap + [2] + rest
        else:
            trap = None
            cards = [2 + i % 3 for i in range(n)]
            rng.shuffle(cards)
        model = _model(f"greedy-wide seed {seed} model {k}", cards)
        # One level per factor stays out of every random avoid, so every pair
        # that is not itself avoided extends to a valid case and the only
        # costly extension searches are the planted ones.  In a trap model the
        # random avoids only join factors after the trap, so no seed can prune
        # the planted searches through the three-level block.
        free = {f: rng.randrange(c) for f, c in enumerate(cards)}
        dense = range(trap + 1, n) if trap else range(n)
        model.avoid = _two_pick_avoids(model, rng, 5 * len(dense) // 2, free=free, factors=dense)
        if trap:
            model.avoid += [((0, 2), (trap, 0)), ((0, 2), (trap, 1))]
        items.append(Item(model))
    return items


def valid_rows(model: Model) -> list[tuple]:
    return [r for r in itertools.product(*map(range, model.cards)) if not violates(r, model.avoid)]


def row_pairs(row):
    n = len(row)
    return [(i, row[i], j, row[j]) for i in range(n) for j in range(i + 1, n)]


def greedy_rows(model: Model, rows: list[tuple], rng: random.Random, tries: int = 8) -> list[tuple]:
    """An AETG-style greedy suite: for a random uncovered pair, keep the best
    of a few random valid rows that contain it."""
    uncovered = {p for r in rows for p in row_pairs(r)}
    suite = []
    while uncovered:
        i, a, j, b = rng.choice(sorted(uncovered))
        cands = [random_row(model, rng, {i: a, j: b}) for _ in range(tries)]
        best = max(cands, key=lambda r: len(uncovered.intersection(row_pairs(r))))
        uncovered.difference_update(row_pairs(best))
        suite.append(best)
    return suite


def minimize_redundant(seed: int) -> list[Item]:
    rng = random.Random(f"minimize-redundant/{seed}")
    items = []
    for k, (shape, joins) in enumerate(MIN_SHAPES * MIN_COPIES):
        cards = list(shape)
        rng.shuffle(cards)
        model = _model(f"minimize-redundant seed {seed} model {k}", cards)
        model.avoid = _two_pick_avoids(model, rng, k % 2)
        rows = valid_rows(model)
        joined = [r for _ in range(joins) for r in greedy_rows(model, rows, rng)]
        items.append(Item(model, rows_to_csv(model, joined)))
    return items


WORKLOADS = {
    "seq-mixed": seq_mixed,
    "greedy-wide": greedy_wide,
    "minimize-redundant": minimize_redundant,
}


def rows_to_csv(model: Model, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(model.factors)
    for r in rows:
        w.writerow(model.levels[f][v] for f, v in enumerate(r))
    return buf.getvalue()


def rows_from_csv(model: Model, text: str) -> list[tuple]:
    """Parse a suite CSV by the model's own names; raises ValueError if malformed."""
    lines = [r for r in csv.reader(io.StringIO(text)) if r]
    if not lines or lines[0] != model.factors:
        raise ValueError("suite header does not name the model's factors")
    rows = []
    for r in lines[1:]:
        if len(r) != len(model.factors):
            raise ValueError(f"row {r} has the wrong width")
        rows.append(tuple(model.levels[f].index(cell) for f, cell in enumerate(r)))
    return rows


def universe_pairs(model: Model) -> set[tuple]:
    """The (i, a, j, b) pairs paircover's InteractionUniverse lists for the model."""
    from paircover.core import ConstraintSet, Factor, FactorSystem, PartialAssignment
    from paircover.interactions import InteractionUniverse

    system = FactorSystem(tuple(Factor(f, tuple(lv)) for f, lv in zip(model.factors, model.levels)))
    cs = ConstraintSet(
        avoid=tuple(PartialAssignment(t) for t in model.avoid),
        must=tuple(PartialAssignment(t) for t in model.must),
    )
    u = InteractionUniverse(system, cs)
    return set(zip(u.f1.tolist(), u.v1.tolist(), u.f2.tolist(), u.v2.tolist()))


def check_rows(model: Model, rows, pairs) -> list[str]:
    """Problems with a suite: avoided rows, musts not carried, pairs not covered."""
    problems = [f"row {r} contains an avoided tuple" for r in rows if violates(r, model.avoid)]
    for t in model.must:
        if not any(all(r[f] == v for f, v in t) for r in rows):
            problems.append(f"no row carries the must tuple {t}")
    covered = {p for r in rows for p in row_pairs(r)}
    problems += [f"pair {p} is not covered" for p in sorted(pairs - covered)]
    return problems
