"""The benchmark's workloads: seeded `nmfr` operations and their output checks.

A workload is an endless, seed-determined sequence of rounds; a round is a
list of operations, one `nmfr` command line each.  A run always executes
the first `batch` rounds (the fixed batch that the traced run and the
stdout digest cover) and then keeps going while the time window lasts.
Every operation's output is checked against what the input is known to be
by construction, never against a second run of the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Callable, Iterator

from nmfrigid import formats
from nmfrigid.cpr import SymmetricFactor
from nmfrigid.exactlin import RationalMatrix
from nmfrigid.rigidity import FactorizationPair

import inputs as gen


@dataclass
class Outcome:
    """What one operation produced, as judged by its check."""

    ok: bool
    work: float
    detail: str = ""
    samples: int = 0  # realization draws, counted by replaying the seeded stream
    accepted: int = 0


@dataclass
class Op:
    kind: str
    argv: list[str]
    files: dict[Path, str]
    check: Callable[[int, str, str], Outcome]
    label: str
    stratum: str  # input class: operations of one stratum cost alike per unit of work
    inner: str | None = None  # cli function whose time the work is counted against

    def prepare(self) -> None:
        for path, text in self.files.items():
            path.write_text(text, encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of `work` is
    batch: int  # rounds every run executes: the traced and digested batch
    rounds: Callable[[int, Path], Iterator[list[Op]]]


# ---------------------------------------------------------------------------
# Parsing helpers for the checks
# ---------------------------------------------------------------------------

def _split_output(stdout: str) -> tuple[str, dict]:
    """Factorization text and certificate document of realize/lift output."""
    start = stdout.index("\n{\n") + 1 if not stdout.startswith("{") else 0
    return stdout[:start], json.loads(stdout[start:])


def _parse_rows(text: str) -> list[list[list[Fraction]]]:
    blocks, current = [], []
    for line in text.splitlines():
        if line.strip():
            current.append(line.split())
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return [[[Fraction(tok) for tok in row] for row in block[1:]] for block in blocks]


def _pair(a, b) -> FactorizationPair:
    return FactorizationPair(RationalMatrix.from_rows(a), RationalMatrix.from_rows(b))


def _doc_fails(doc: dict, subject, shape: dict, expect: dict) -> str | None:
    """First mismatch between a certificate document and expectations."""
    if doc.get("kind") != "rigidity-certificate" or doc.get("input") != shape:
        return f"document header {doc.get('kind')} {doc.get('input')}"
    body = doc["certificate"]
    for key, want in expect.items():
        got = body.get(key)
        if callable(want) and not want(got) or not callable(want) and got != want:
            return f"{key} = {got!r}"
    try:
        formats.verify_certificate_document(doc, subject)
    except (ValueError, KeyError) as exc:
        return f"document does not verify: {exc}"
    return None


def _verdict(fail: str | None, work: float = 1.0, **extra) -> Outcome:
    return Outcome(ok=fail is None, work=work if fail is None else 0.0, detail=fail or "", **extra)


# ---------------------------------------------------------------------------
# certify: nmfr check --json / nmfr cp-check --json
# ---------------------------------------------------------------------------

RIGID_EXPECT = {
    "classification": "infinitesimally-rigid",
    "generator_count": 13,
    "span_rank": 12,
    "dim_w": 4,
    "kruskal_rank": 12,
}
NONRIGID_EXPECT = {
    "classification": lambda c: c != "infinitesimally-rigid",
    "generator_count": 12,
}


def _pair_check_op(path: Path, p: gen.PairInput, kind: str, expect: dict) -> Op:
    shape = {"symmetric": False, "m": len(p.a), "r": len(p.b), "n": len(p.b[0])}

    def check(code: int, out: str, err: str) -> Outcome:
        if code != 0:
            return _verdict(f"exit {code}: {err.strip()[:200]}")
        return _verdict(_doc_fails(json.loads(out), _pair(p.a, p.b), shape, expect))

    files = {path: gen.pair_text(p.a, p.b)}
    return Op(kind, ["check", str(path), "--json"], files, check, p.note, f"{kind}-{p.fixture}")


def _cp_check_op(path: Path, s: gen.SymmetricInput) -> Op:
    cls, gens, kruskal = gen.CP_EXPECTED[s.fixture][s.side]
    shape = {"symmetric": True, "n": len(s.a), "r": len(s.a[0])}
    expect = {"classification": cls, "generator_count": gens, "kruskal_rank": kruskal}
    subject = SymmetricFactor(RationalMatrix.from_rows(s.a))

    def check(code: int, out: str, err: str) -> Outcome:
        if code != 0:
            return _verdict(f"exit {code}: {err.strip()[:200]}")
        return _verdict(_doc_fails(json.loads(out), subject, shape, expect))

    files = {path: gen.matrix_text(s.a)}
    return Op("cp", ["cp-check", str(path), "--json"], files, check, s.note, f"cp-{s.fixture}-{s.side}")


def _cycle(seed: int, name: str, exclude: tuple[int, ...] = ()) -> Iterator[tuple[int, int]]:
    """(operation index, fixture index): seeded passes over the fixtures."""
    k = 0
    for block in count():
        for idx in gen.fixture_order(seed, f"{name}-{block}", exclude):
            yield k, idx
            k += 1


def certify_rigid_rounds(seed: int, wd: Path) -> Iterator[list[Op]]:
    for k, idx in _cycle(seed, "rigid"):
        p = gen.transformed_pair(idx, gen.rng_for(seed, "rigid", k))
        yield [_pair_check_op(wd / f"rigid-{k}.txt", p, "rigid", RIGID_EXPECT)]


def certify_nonrigid_rounds(seed: int, wd: Path) -> Iterator[list[Op]]:
    for k, idx in _cycle(seed, "nonrigid"):
        rng = gen.rng_for(seed, "nonrigid", k)
        p = gen.filled_pair(gen.transformed_pair(idx, rng), rng)
        yield [
            _pair_check_op(wd / f"nonrigid-{k}.txt", p, "nonrigid", NONRIGID_EXPECT),
            _cp_check_op(wd / f"cp-a-{k}.txt", gen.transformed_symmetric(idx, 0, rng)),
            _cp_check_op(wd / f"cp-b-{k}.txt", gen.transformed_symmetric(idx, 1, rng)),
        ]


# ---------------------------------------------------------------------------
# realize: nmfr realize --pattern P --seed S
# ---------------------------------------------------------------------------

REALIZE_RANGE = (1, 1000)  # the CLI defaults
REALIZE_MAX_SAMPLES = 10000


def replay_samples(p: gen.PatternInput, a, b) -> int:
    """Position of (a, b) in the search's seeded sample stream, 0 if absent.

    The search draws one integer per free entry, A row-major then B
    row-major, from random.Random(seed); the realization it prints must be
    one of those draws, and its position is the number of samples drawn.
    """
    rng = random.Random(p.search_seed)
    lo, hi = REALIZE_RANGE
    free_a = [[not z for z in row] for row in p.zeros_a]
    free_b = [[not z for z in row] for row in p.zeros_b]
    for k in range(1, REALIZE_MAX_SAMPLES + 1):
        da = [[rng.randint(lo, hi) if f else 0 for f in row] for row in free_a]
        db = [[rng.randint(lo, hi) if f else 0 for f in row] for row in free_b]
        if da == a and db == b:
            return k
    return 0


def _realize_op(path: Path, p: gen.PatternInput) -> Op:
    shape = {"symmetric": False, "m": p.m, "r": p.r, "n": p.n}

    def check(code: int, out: str, err: str) -> Outcome:
        if code != 0:
            return _verdict(f"exit {code}: {err.strip()[:200]}")
        text, doc = _split_output(out)
        a, b = _parse_rows(text)
        zeros = (
            tuple(tuple(x == 0 for x in row) for row in a),
            tuple(tuple(x == 0 for x in row) for row in b),
        )
        if zeros != (p.zeros_a, p.zeros_b):
            return _verdict("realization does not have the input's zero pattern")
        if doc.get("seed") != p.search_seed:
            return _verdict(f"document seed {doc.get('seed')}")
        samples = replay_samples(p, a, b)
        if not samples:
            return _verdict("realization is not a draw of the seeded sample stream")
        fail = _doc_fails(doc, _pair(a, b), shape, RIGID_EXPECT)
        return _verdict(fail, work=samples, samples=samples, accepted=1)

    argv = ["realize", "--pattern", str(path), "--seed", str(p.search_seed)]
    # Samples are counted against the search alone: the parse, the final
    # certification of the accepted pair and the output cost the same for
    # every search, and certify-rigid measures that certification already.
    files = {path: gen.pattern_text(p)}
    return Op("realize", argv, files, check, p.note, f"realize-{p.index}", inner="realize_pattern")


def realize_rounds(seed: int, wd: Path) -> Iterator[list[Op]]:
    for k, idx in _cycle(seed, "realize"):  # 15 representatives, as many as fixtures
        p = gen.table1_pattern(idx, gen.rng_for(seed, "realize", k).randrange(1, 2**31))
        yield [_realize_op(wd / f"pattern-{k}.txt", p)]


def untransformed_realize_ops(wd: Path) -> list[Op]:
    """The 15 table-1 representatives, each searched with seed 1."""
    return [_realize_op(wd / f"pattern-plain-{i}.txt", gen.table1_pattern(i, 1)) for i in range(15)]


# ---------------------------------------------------------------------------
# lift: nmfr lift F
# ---------------------------------------------------------------------------

LIFT_EXPECT = {
    "classification": "partially-infinitesimally-rigid",
    "inner_rank": 5,
    "generator_count": 18,
}


def _lift_op(path: Path, p: gen.PairInput) -> Op:
    m, r, n = len(p.a), len(p.b), len(p.b[0])
    shape = {"symmetric": False, "m": m, "r": r + 1, "n": n + 1}
    known_failure = p.fixture == gen.LIFT_FAILURE_FIXTURE

    def check(code: int, out: str, err: str) -> Outcome:
        if known_failure and code == 1 and err.startswith("lift failed:"):
            return Outcome(ok=True, work=0.0, detail="known lift failure")
        if code != 0:
            return _verdict(f"exit {code}: {err.strip()[:200]}")
        text, doc = _split_output(out)
        a, b = _parse_rows(text)
        # The lift appends a strictly positive column to A, a column to B
        # and a zero row (but for its last entry) under B.
        if [row[:r] for row in a] != p.a or any(row[r] <= 0 for row in a):
            return _verdict("lifted A does not extend the input A by a positive column")
        if [row[:n] for row in b[:r]] != p.b or b[r][:n] != [0] * n:
            return _verdict("lifted B does not extend the input B")
        return _verdict(_doc_fails(doc, _pair(a, b), shape, LIFT_EXPECT))

    files = {path: gen.pair_text(p.a, p.b)}
    return Op("lift", ["lift", str(path)], files, check, p.note, f"lift-{p.fixture}")


def lift_rounds(seed: int, wd: Path) -> Iterator[list[Op]]:
    """Two lifts per round; the first round also lifts fixture 09."""
    def op(k: int, idx: int) -> Op:
        p = gen.transformed_pair(idx, gen.rng_for(seed, "lift", k), for_lift=True)
        return _lift_op(wd / f"lift-{k}.txt", p)

    first = [op(-1, gen.LIFT_FAILURE_FIXTURE)]
    stream = _cycle(seed, "lift", exclude=(gen.LIFT_FAILURE_FIXTURE,))
    while True:
        yield first + [op(k, idx) for k, idx in (next(stream), next(stream))]
        first = []


# ---------------------------------------------------------------------------
# enumerate: nmfr enumerate --shape M N --rank 4 --zeros 13
# ---------------------------------------------------------------------------

def _enumerate_op(m: int, n: int, expected: int) -> Op:
    def check(code: int, out: str, err: str) -> Outcome:
        if code != 0:
            return _verdict(f"exit {code}: {err.strip()[:200]}")
        return _verdict(None if out.strip() == str(expected) else f"count {out.strip()}")

    argv = ["enumerate", "--shape", str(m), str(n), "--rank", "4", "--zeros", "13"]
    return Op("enumerate", argv, {}, check, f"{m}x{n}", f"enumerate-{m}x{n}")


def enumerate_rounds(seed: int, wd: Path) -> Iterator[list[Op]]:
    del seed, wd  # the sweep has no inputs to draw
    while True:
        yield [_enumerate_op(m, n, want) for (m, n), want in gen.ENUMERATE_SHAPES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-rigid", "checks", 30, certify_rigid_rounds),
        Workload("certify-nonrigid", "checks", 15, certify_nonrigid_rounds),
        Workload("realize", "samples", 30, realize_rounds),
        Workload("lift", "lifts", 1, lift_rounds),
        Workload("enumerate", "shapes", 1, enumerate_rounds),
    )
}
