import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import nmfrigid
from nmfrigid import formats
from nmfrigid.cli import main
from nmfrigid.cpr import SymmetricFactor
from nmfrigid.exactlin import RationalMatrix
from nmfrigid.fixtures import RIGID_5X5, circulant_pair, lift_demo_pair


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fx1.txt"
    path.write_text(formats.dump_factorization(RIGID_5X5[0].pair()))
    return path


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fixture(capsys, fixture_file):
    code, out, _ = run(capsys, "check", str(fixture_file))
    assert code == 0
    assert "infinitesimally-rigid" in out
    assert "dim W          : 4" in out


def test_check_json_verifies(capsys, fixture_file):
    code, out, _ = run(capsys, "check", str(fixture_file), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["classification"] == "infinitesimally-rigid"
    assert formats.verify_certificate_document(doc, RIGID_5X5[0].pair())


def test_check_not_rigid_input_still_exits_zero(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(formats.dump_factorization(circulant_pair()))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "undetermined" in out
    assert "span rank      : 5" in out


def test_check_negative_entry_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 -3\n2 1\n\n2 2\n1 1\n2 1\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "A[0,1]" in err


def test_check_malformed_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a matrix\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


def test_check_rank_deficient_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n1 1\n\n2 2\n1 0\n0 1\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "rank" in err


def test_cp_check(capsys, tmp_path):
    path = tmp_path / "ident.txt"
    path.write_text(formats.dump_symmetric_factor(SymmetricFactor(RationalMatrix.identity(3))))
    code, out, _ = run(capsys, "cp-check", str(path))
    assert code == 0
    assert "infinitesimally-rigid" in out


def test_enumerate_counts(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--shape", "5", "5", "--rank", "4", "--zeros", "13",
        "--filters", "table1",
    )
    assert code == 0 and out.strip() == "15"
    code, out, _ = run(
        capsys, "enumerate", "--shape", "2", "2", "--rank", "2", "--zeros", "0",
        "--filters", "wpoint",
    )
    assert code == 0 and out.strip() == "0"


def test_enumerate_wide_shape_builds_only_masks_in_the_zero_window():
    # Under wpoint alone a slot may hold all 40 rows, so a table of every
    # subset of the ground would never fit in memory; only masks of at most
    # 4 zeros can be used.  The child runs under a 512 MB address-space cap
    # and a timeout, so a table that grows fails fast instead of swapping.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    done = subprocess.run(
        [
            sys.executable, "-m", "nmfrigid.cli", "enumerate", "--shape", "40", "40",
            "--rank", "2", "--zeros", "4", "--filters", "wpoint",
        ],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(nmfrigid.__file__).parents[1])},
        preexec_fn=cap_memory,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")


@pytest.mark.parametrize(
    "shape, zeros", [(("7", "6"), "14"), (("5", "5"), "60")], ids=["7x6-14", "5x5-60"]
)
def test_enumerate_zero_rectangles_off_the_tight_count_fails_up_front(shape, zeros):
    # The rectangle bound holds only at r*r - r + 1 zeros; any other count is
    # refused before enumeration, whether or not representatives exist.
    done = subprocess.run(
        [
            sys.executable, "-m", "nmfrigid.cli", "enumerate", "--shape", *shape,
            "--rank", "4", "--zeros", zeros, "--filters", "zero-rectangles",
        ],
        capture_output=True,
        text=True,
        timeout=5,
        env={**os.environ, "PYTHONPATH": str(Path(nmfrigid.__file__).parents[1])},
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "13 zeros" in done.stderr


def test_enumerate_writes_pattern_files(capsys, tmp_path):
    out_dir = tmp_path / "pats"
    code, out, _ = run(
        capsys, "enumerate", "--shape", "9", "5", "--rank", "4", "--zeros", "13",
        "--filters", "table1", "--out", str(out_dir),
    )
    assert code == 0 and out.strip() == "2"
    files = sorted(out_dir.glob("pattern-*.txt"))
    assert [path.name for path in files] == ["pattern-001.txt", "pattern-002.txt"]
    for path in files:
        pattern = formats.load_pattern(path.read_text())
        assert pattern.zero_count == 13


def test_enumerate_file_names_sort_past_999_patterns(capsys, tmp_path, monkeypatch):
    from nmfrigid import cli

    pattern = RIGID_5X5[0].pair().zero_pattern()
    monkeypatch.setattr(cli, "enumerate_patterns", lambda *args: [pattern] * 1000)
    out_dir = tmp_path / "pats"
    code, out, _ = run(
        capsys, "enumerate", "--shape", "5", "5", "--rank", "4", "--zeros", "13",
        "--out", str(out_dir),
    )
    assert (code, out) == (0, "1000\n")
    names = sorted(path.name for path in out_dir.iterdir())
    assert len(names) == 1000
    assert names[0] == "pattern-0001.txt" and names[-1] == "pattern-1000.txt"


def assert_one_input_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "command", [("check",), ("cp-check",), ("lift",), ("realize", "--pattern")],
    ids=["check", "cp-check", "lift", "realize"],
)
def test_undecodable_input_is_input_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("2 2\n1 \u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, *command, str(path))
    assert_one_input_error(code, out, err)
    assert "can't decode" in err


def _enumerate_into(capsys, monkeypatch, out):
    # The --out path is tested before the enumeration runs.
    from nmfrigid import cli

    def never(*args):
        raise AssertionError("enumerate_patterns ran before --out was checked")

    monkeypatch.setattr(cli, "enumerate_patterns", never)
    return run(
        capsys, "enumerate", "--shape", "9", "5", "--rank", "4", "--zeros", "13",
        "--out", out,
    )


def test_enumerate_out_on_an_existing_file_is_input_error(capsys, tmp_path, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = _enumerate_into(capsys, monkeypatch, str(taken))
    assert_one_input_error(code, out, err)
    assert err == f"error: [Errno 17] File exists: {str(taken)!r}\n"


def test_enumerate_out_under_an_existing_file_is_input_error(capsys, tmp_path, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    target = str(taken / "sub" / "dir")
    code, out, err = _enumerate_into(capsys, monkeypatch, target)
    assert_one_input_error(code, out, err)
    assert err == f"error: [Errno 20] Not a directory: {target!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_enumerate_refusing_its_input_leaves_no_out_directory(capsys, tmp_path):
    target = tmp_path / "reps"
    code, out, err = run(
        capsys, "enumerate", "--shape", "3", "3", "--rank", "4", "--zeros", "13",
        "--out", str(target),
    )
    assert_one_input_error(code, out, err)
    assert not target.exists()


@pytest.mark.parametrize("command", ["realize", "lift"])
def test_out_in_a_missing_directory_is_input_error(
    capsys, tmp_path, monkeypatch, fixture_file, command
):
    from nmfrigid import cli

    # The directory is checked before the search or the lift runs.
    called = []
    monkeypatch.setattr(cli, "realize_pattern", lambda *a: called.append("realize"))
    monkeypatch.setattr(cli, "lift_partially_rigid", lambda *a: called.append("lift"))
    target = str(tmp_path / "missing" / "x.txt")
    if command == "realize":
        pattern = tmp_path / "pattern.txt"
        pattern.write_text(formats.dump_pattern(RIGID_5X5[0].pair().zero_pattern()))
        args = ("realize", "--pattern", str(pattern), "--seed", "1")
    else:
        args = ("lift", str(fixture_file))
    code, out, err = run(capsys, *args, "--out", target)
    assert_one_input_error(code, out, err)
    assert called == []
    assert err == f"error: [Errno 2] No such file or directory: {target!r}\n"


def test_enumerate_unknown_filter(capsys):
    code, _, err = run(
        capsys, "enumerate", "--shape", "5", "5", "--rank", "4", "--zeros", "13",
        "--filters", "bogus",
    )
    assert code == 2 and "unknown filter" in err


def test_realize_round_trip(capsys, tmp_path, fixture_file):
    pattern = RIGID_5X5[0].pair().zero_pattern()
    pattern_path = tmp_path / "pattern.txt"
    pattern_path.write_text(formats.dump_pattern(pattern))
    out_path = tmp_path / "realized.txt"
    code, out, _ = run(
        capsys, "realize", "--pattern", str(pattern_path), "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["classification"] == "infinitesimally-rigid"
    assert doc["seed"] == 1
    pair = formats.load_factorization(out_path.read_text())
    assert pair.zero_pattern() == pattern
    assert formats.verify_certificate_document(doc, pair)


def test_realize_refuses_wpoint_failure(capsys, tmp_path):
    from nmfrigid.fixtures import twelve_zero_pattern_5x7

    path = tmp_path / "pattern.txt"
    path.write_text(formats.dump_pattern(twelve_zero_pattern_5x7()))
    code, _, err = run(capsys, "realize", "--pattern", str(path))
    assert code == 2
    assert "pair conditions" in err


def test_realize_budget_exhausted(capsys, tmp_path):
    pattern = RIGID_5X5[0].pair().zero_pattern()
    path = tmp_path / "pattern.txt"
    path.write_text(formats.dump_pattern(pattern))
    code, _, err = run(capsys, "realize", "--pattern", str(path), "--max-samples", "0")
    assert code == 1
    assert "no rigid realization" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--range", "5", "1"), "need 0 < entry_low <= entry_high"),
        (("--range", "-1", "3"), "need 0 < entry_low <= entry_high"),
        (("--range", "0", "0"), "need 0 < entry_low <= entry_high"),
        (("--max-samples", "-1"), "max_samples must be nonnegative"),
    ],
    ids=["range-reversed", "range-negative", "range-zero", "max-samples-negative"],
)
def test_realize_bad_search_settings_are_input_errors(capsys, tmp_path, flags, message):
    path = tmp_path / "pattern.txt"
    path.write_text(formats.dump_pattern(RIGID_5X5[0].pair().zero_pattern()))
    code, out, err = run(capsys, "realize", "--pattern", str(path), *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_fixtures(capsys):
    code, out, _ = run(capsys, "verify-fixtures")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert all("pass" in line for line in lines[:15])
    assert lines[-1] == "15/15 fixtures pass"


def test_verify_fixtures_starts_no_process(capsys, monkeypatch):
    import concurrent.futures

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("verify-fixtures started a process pool")

    # A set NMFR_THREADS must not bring a worker pool back.
    monkeypatch.setenv("NMFR_THREADS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    code, out, _ = run(capsys, "verify-fixtures")
    assert code == 0
    assert out.strip().splitlines()[-1] == "15/15 fixtures pass"


def test_negative_kruskal_budget_is_input_error(capsys, fixture_file):
    for command in ("check", "cp-check", "realize", "lift"):
        target = ["--pattern", str(fixture_file)] if command == "realize" else [str(fixture_file)]
        with pytest.raises(SystemExit) as exc:
            main([command, *target, "--kruskal-budget", "-1"])
        assert exc.value.code == 2
        assert "--kruskal-budget: must be nonnegative, got -1" in capsys.readouterr().err


def test_verify_fixtures_reports_corruption_with_entry_diff(capsys, monkeypatch):
    import dataclasses

    from nmfrigid import cli
    from nmfrigid.fixtures import RIGID_5X5

    broken = RIGID_5X5[2]
    product = [list(row) for row in broken.product]
    product[4][4] += 1
    corrupted = dataclasses.replace(broken, product=tuple(map(tuple, product)))
    fixtures = RIGID_5X5[:2] + (corrupted,) + RIGID_5X5[3:]
    monkeypatch.setattr(cli, "RIGID_5X5", fixtures)
    code, out, _ = run(capsys, "verify-fixtures")
    assert code == 1
    lines = out.strip().splitlines()
    assert "FAIL" in lines[2]
    assert "product[4,4]" in lines[2]
    assert lines[-1] == "14/15 fixtures pass"


def test_lift_demo(capsys, tmp_path):
    path = tmp_path / "pir.txt"
    path.write_text(formats.dump_factorization(lift_demo_pair()))
    out_path = tmp_path / "lifted.txt"
    code, out, _ = run(capsys, "lift", str(path), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["classification"] == "partially-infinitesimally-rigid"
    assert doc["certificate"]["v_support"] == [[0, 3], [1, 3], [2, 3]]
    lifted = formats.load_factorization(out_path.read_text())
    assert formats.verify_certificate_document(doc, lifted)


def test_lift_refuses_non_rigid(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(formats.dump_factorization(circulant_pair()))
    code, out, err = run(capsys, "lift", str(path))
    assert code == 2 and out == ""
    assert err == "error: lift needs an infinitesimally rigid input, got undetermined\n"


def test_lift_of_fixture_09_verifies(capsys, tmp_path):
    # No fixed weighting of B's columns lifts this fixture; free weights do.
    path = tmp_path / "fx9.txt"
    path.write_text(formats.dump_factorization(RIGID_5X5[8].pair()))
    out_path = tmp_path / "lifted.txt"
    code, out, err = run(capsys, "lift", str(path), "--out", str(out_path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    cert = doc["certificate"]
    assert cert["classification"] == "partially-infinitesimally-rigid"
    assert (cert["dim_w"], cert["kruskal_rank"]) == (9, 4)
    assert cert["v_support"] == [[0, 4], [1, 4], [2, 4], [3, 4]]
    assert formats.verify_certificate_document(doc, formats.load_factorization(out_path.read_text()))


def test_lift_without_a_solution_exits_one(capsys, tmp_path):
    # [1]·[1] is rigid (no zeros, nothing to move) but has no A-zero rows to
    # solve for, so no positive weighting of B's single column works.
    path = tmp_path / "one.txt"
    path.write_text("1 1\n1\n\n1 1\n1\n")
    code, out, err = run(capsys, "lift", str(path))
    assert (code, out) == (1, "")
    assert err == "lift failed: no positive weighting of B's columns admits a lift\n"


def test_readme_synopsis_lists_every_long_option():
    import re
    from pathlib import Path

    from nmfrigid.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    synopsis = {}
    for line in readme.splitlines():
        if line.startswith("nmfr "):
            synopsis.setdefault(line.split()[1], line)
    subparsers = next(
        action for action in build_parser()._actions if action.dest == "command"
    )
    for name, parser in subparsers.choices.items():
        options = {
            opt for action in parser._actions for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        assert name in synopsis, f"README has no synopsis line for {name}"
        listed = set(re.findall(r"--[a-z][a-z-]*", synopsis[name]))
        assert options <= listed, f"{name}: README synopsis omits {sorted(options - listed)}"


def test_outputs_deterministic(capsys, fixture_file):
    code1, out1, _ = run(capsys, "check", str(fixture_file), "--json")
    code2, out2, _ = run(capsys, "check", str(fixture_file), "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_realize_output_deterministic(capsys, tmp_path):
    pattern = RIGID_5X5[0].pair().zero_pattern()
    path = tmp_path / "pattern.txt"
    path.write_text(formats.dump_pattern(pattern))
    _, out1, _ = run(capsys, "realize", "--pattern", str(path), "--seed", "3")
    _, out2, _ = run(capsys, "realize", "--pattern", str(path), "--seed", "3")
    assert out1 == out2


def test_enumerate_rank_above_shape_is_input_error(capsys):
    code, out, err = run(
        capsys, "enumerate", "--shape", "5", "5", "--rank", "6", "--zeros", "31",
    )
    assert code == 2 and out == ""
    assert err == (
        "error: inner rank 6 exceeds min(m, n) = 5: "
        "no full-rank factorization has that inner size\n"
    )


def test_realize_rank_above_shape_is_input_error(capsys, tmp_path):
    # m = 6, n = 4, r = 5: the columns of the A-pattern are five distinct
    # 3-subsets of the six rows and the rows of the B-pattern five distinct
    # 2-subsets of the four columns, 25 zeros in all, so the pattern passes
    # the zero-count and pair conditions but no 5 x 4 factor has rank 5.
    a_cols = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5), (0, 1, 5))
    b_rows = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    a_lines = ["".join("0" if i in col else "." for col in a_cols) for i in range(6)]
    b_lines = ["".join("0" if l in row else "." for l in range(4)) for row in b_rows]
    path = tmp_path / "wide.txt"
    path.write_text("6 4 5\n" + "\n".join(a_lines) + "\n\n" + "\n".join(b_lines) + "\n")
    # The pattern object cannot be built (r > min(m, n)), so the premise is
    # checked on the raw zero masks instead.
    from nmfrigid.patterns import _pairwise_separating

    a_masks = tuple(sum(1 << i for i in col) for col in a_cols)
    b_masks = tuple(sum(1 << l for l in row) for row in b_rows)
    assert sum(mask.bit_count() for mask in a_masks + b_masks) == 25
    assert _pairwise_separating(a_masks) and _pairwise_separating(b_masks)
    code, out, err = run(capsys, "realize", "--pattern", str(path), "--max-samples", "5")
    assert code == 2 and out == ""
    assert err == (
        "error: inner rank 5 exceeds min(m, n) = 4: "
        "no full-rank factorization has that inner size\n"
    )


def test_lift_of_fixture_01_reports_kruskal_rank_4(capsys, fixture_file):
    # The lifted 5 x 6 pair has 18 generators, a 2-dimensional kernel and
    # Kruskal rank 4, reached after 30,185 subset tests (default budget 10^6).
    code, out, err = run(capsys, "lift", str(fixture_file))
    assert code == 0 and err == ""
    doc = json.loads(out[out.index("\n{\n") + 1 :])
    assert doc["certificate"]["kruskal_rank"] == 4
    assert doc["certificate"]["classification"] == "partially-infinitesimally-rigid"
