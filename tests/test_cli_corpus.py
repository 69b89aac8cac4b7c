"""One digest pins the bytes of 331 `nmfr` runs.

Each item is an argv, its exit code, stdout and stderr, with the temporary
directory written as `<tmp>`.  The items are `check`, `check --json`,
`check --json --kruskal-budget 3` and `lift` on the 15 fixtures; `cp-check`
and `cp-check --json` on A and B^T of each fixture; `check --json` on the
195 pairs made by filling in one zero of a fixture; `realize --seed 1` on
the 15 table-1 5x5 representatives; and `verify-fixtures`.  Any change to
a classification, dimension, witness, V-basis, Kruskal rank or message
changes the digest.
"""

import hashlib

from nmfrigid import cone, formats, realize
from nmfrigid.cli import main
from nmfrigid.fixtures import RIGID_5X5
from nmfrigid.patterns import enumerate_patterns, table1_filters
from test_cone import _cap_pivots, _fraction_simplex
from test_rigidity import twelve_zero_variants

CORPUS_ITEMS = 331
CORPUS_SHA256 = "80d0a323bc4d8cb3a75f5fbd3a9733c7c4c817b8db758f6e9793c52fcaaaa19b"


def corpus_argvs(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    argvs = []
    for fx in RIGID_5X5:
        pair = fx.pair()
        path = write(f"{fx.name}.txt", formats.dump_factorization(pair))
        argvs += [
            ["check", path],
            ["check", path, "--json"],
            ["check", path, "--json", "--kruskal-budget", "3"],
            ["lift", path],
        ]
        for side, factor in (("a", pair.a), ("bt", pair.b.transpose())):
            sym = write(f"{fx.name}-{side}.txt", formats.dump_matrix(factor))
            argvs += [["cp-check", sym], ["cp-check", sym, "--json"]]
    for fx in RIGID_5X5:
        for k, variant in enumerate(twelve_zero_variants(fx.pair())):
            argvs.append(["check", write(f"{fx.name}-v{k}.txt", formats.dump_factorization(variant)), "--json"])
    for k, pattern in enumerate(enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5))):
        argvs.append(["realize", "--pattern", write(f"rep{k}.txt", formats.dump_pattern(pattern)), "--seed", "1"])
    argvs.append(["verify-fixtures"])
    return argvs


def test_cli_corpus_bytes_are_pinned(capsys, tmp_path):
    argvs = corpus_argvs(tmp_path)
    assert len(argvs) == CORPUS_ITEMS
    digest = hashlib.sha256()
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        item = "\0".join([" ".join(argv), str(code), captured.out, captured.err, ""])
        digest.update(item.replace(str(tmp_path), "<tmp>").encode("utf-8"))
    assert digest.hexdigest() == CORPUS_SHA256


def test_every_corpus_lp_matches_the_fraction_simplex(capsys, monkeypatch, tmp_path):
    # Every relint, lineality and lift LP the corpus runs, each answered as
    # the Fraction-tableau reference answers it, and the pivots they take.
    lps = []

    def recording(*args):
        answer = lp_feasible(*args)
        lps.append((args, answer))
        return answer

    lp_feasible = cone.lp_feasible
    for module in (cone, realize):
        monkeypatch.setattr(module, "lp_feasible", recording)
    pivots = _cap_pivots(monkeypatch, 10**4)
    for argv in corpus_argvs(tmp_path):
        main(argv)
    capsys.readouterr()
    assert len(lps) == 60
    for args, answer in lps:
        assert answer == _fraction_simplex(*args)
    assert len(pivots) == 450
