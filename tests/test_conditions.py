"""The necessary-condition reports of pairs and symmetric factors, pinned.

One digest holds every condition of both reports, (kind, name, applicable,
passed, detail), over 840 subjects: the 15 rigid fixtures, their 195
twelve-zero variants, the 30 symmetric factors A and B^T of the fixtures,
and 300 seeded random pairs and 300 seeded random symmetric factors at the
tight zero count with r = 2..4.  Every (name, applicable, passed)
combination the reports produce on such inputs occurs among them.
"""

import hashlib
import random

from reference_data import all_applicable_pass
from test_rigidity import twelve_zero_variants

from nmfrigid.cpr import SymmetricFactor, certify_cp, cp_necessary_conditions
from nmfrigid.exactlin import RationalMatrix
from nmfrigid.fixtures import RIGID_5X5
from nmfrigid.rigidity import (
    Classification,
    FactorizationPair,
    certify,
    necessary_conditions_report,
)

REPORT_DIGEST = "b8cb4df2fe3597a2bc1cb038863ba89f8198ca426f915b0684f481896e5a3446"


def tight_random_pair(rng):
    # Exactly r^2 - r + 1 zeros spread over the entries of A and B.
    while True:
        r = rng.randint(2, 4)
        m, n = rng.randint(r, r + 2), rng.randint(r, r + 2)
        cells = set(rng.sample(range(m * r + r * n), r * r - r + 1))
        entries = [0 if k in cells else rng.randint(1, 9) for k in range(m * r + r * n)]
        a = [entries[i * r:(i + 1) * r] for i in range(m)]
        b = [entries[m * r + j * n:m * r + (j + 1) * n] for j in range(r)]
        try:
            return FactorizationPair(RationalMatrix.from_rows(a), RationalMatrix.from_rows(b))
        except ValueError:
            continue


def tight_random_factor(rng):
    # Exactly r(r-1)/2 + 1 zeros in an n x r factor.
    while True:
        r = rng.randint(2, 4)
        n = rng.randint(r, r + 2)
        cells = set(rng.sample(range(n * r), r * (r - 1) // 2 + 1))
        rows = [
            [0 if i * r + j in cells else rng.randint(1, 9) for j in range(r)] for i in range(n)
        ]
        try:
            return SymmetricFactor(RationalMatrix.from_rows(rows))
        except ValueError:
            continue


def report_rows():
    rng = random.Random(1600)
    pairs = [f.pair() for f in RIGID_5X5]
    pairs += [variant for pair in list(pairs) for variant in twelve_zero_variants(pair)]
    factors = [SymmetricFactor(m) for f in RIGID_5X5 for m in (f.pair().a, f.pair().b.transpose())]
    pairs += [tight_random_pair(rng) for _ in range(300)]
    factors += [tight_random_factor(rng) for _ in range(300)]
    assert (len(pairs), len(factors)) == (510, 330)
    rows = []
    for kind, subjects, report in (
        ("pair", pairs, necessary_conditions_report),
        ("cp", factors, cp_necessary_conditions),
    ):
        for subject in subjects:
            for c in report(subject).conditions:
                rows.append((kind, c.name, c.applicable, c.passed, c.detail))
    return rows


def test_reports_are_pinned_on_840_subjects():
    rows = report_rows()
    digest = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()
    combos = {(kind, name, applicable, passed) for kind, name, applicable, passed, _ in rows}
    # Each of the 15 conditions is both passed and failed where it applies,
    # and the 8 conditional ones are also reported not applicable.
    assert len(combos) == 2 * 15 + 8, sorted(combos)
    assert digest == REPORT_DIGEST


def test_rank_one_subjects_have_no_applicable_condition():
    # At r = 1 the motion space is zero, every pair and factor certifies
    # rigid, and no necessary condition has anything to say.
    pairs = [([[1]], [[2]]), ([[1], [0]], [[0, 3]]), ([[2], [1], [5]], [[1, 1]])]
    for a, b in pairs:
        pair = FactorizationPair(RationalMatrix.from_rows(a), RationalMatrix.from_rows(b))
        assert certify(pair).classification is Classification.INFINITESIMALLY_RIGID
        report = necessary_conditions_report(pair)
        assert [c.applicable for c in report.conditions] == [False] * 8
        assert all_applicable_pass(report)
    for rows in ([[0], [1]], [[1]], [[3], [0], [0]]):
        factor = SymmetricFactor(RationalMatrix.from_rows(rows))
        assert certify_cp(factor).classification is Classification.INFINITESIMALLY_RIGID
        report = cp_necessary_conditions(factor)
        assert [c.applicable for c in report.conditions] == [False] * 7
        assert all_applicable_pass(report)
