"""Command line front end.

Subcommands: check, cp-check, enumerate, realize, verify-fixtures, lift.
Exit codes are a stable contract: 0 success, 1 verification or search
failure, 2 input error.  Output is deterministic byte for byte given the
same inputs and seeds.  The argument parser is built once per process, on
the first `main` call, and reused by every later one.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from pathlib import Path

from . import __version__, formats
from .cpr import certify_cp
from .exactlin import _shown
from .fixtures import RIGID_5X5, BenchmarkFactorization
from .patterns import THEOREM_FILTERS, PatternFilter, check_wpoint, enumerate_patterns, table1_filters
from .realize import WPOINT_REFUSAL, LiftInfeasibleError, RealizationSearchConfig, lift_partially_rigid, realize_pattern
from .rigidity import DEFAULT_KRUSKAL_BUDGET, Classification, certify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _require_out(out: str | None, tree: bool = False) -> None:
    # Fail before the work, creating nothing, with the error that the final
    # write (mkdir(parents=True, exist_ok=True) for a tree) would raise.
    if out is None:
        return
    path = Path(out)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if nearest != path and not nearest.is_dir():
        code = errno.ENOTDIR
    elif tree:
        code = 0 if nearest.is_dir() else errno.EEXIST
    else:
        code = errno.EISDIR if path.is_dir() else 0 if nearest in (path, path.parent) else errno.ENOENT
    if code:
        raise OSError(code, os.strerror(code), str(path))


def _print_certificate(cert, heading: str) -> None:
    print(heading)
    print(f"  classification : {cert.classification.value}")
    print(f"  generators     : {cert.generator_count}")
    print(f"  span rank      : {cert.span_rank}")
    print(f"  lineality dim  : {cert.lineality_dim}")
    print(f"  dim W          : {cert.dim_w} (ambient {cert.ambient_dim})")
    kr = "not computed (budget)" if cert.kruskal_rank is None else str(cert.kruskal_rank)
    print(f"  kruskal rank   : {kr}")
    if cert.v_basis is not None:
        support = ", ".join(f"({i + 1},{j + 1})" for i, j in cert.v_support())
        print(f"  V support      : {support}")


def cmd_check(args) -> int:
    text = _read_text(args.path)
    if args.symmetric:
        subject = formats.load_symmetric_factor(text)
        cert = certify_cp(subject, kruskal_budget=args.kruskal_budget)
    else:
        subject = formats.load_factorization(text)
        cert = certify(subject, kruskal_budget=args.kruskal_budget)
    if args.json:
        doc = formats.certificate_to_document(
            cert, formats.input_shape(subject), flags={"kruskal_budget": args.kruskal_budget}
        )
        sys.stdout.write(formats.dump_json(doc))
    else:
        _print_certificate(cert, f"{args.path}:")
    return EXIT_OK


def _parse_filters(spec: str, m: int, n: int) -> frozenset[PatternFilter]:
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    presets = {"table1": table1_filters(m, n), "theorem": THEOREM_FILTERS}
    out: set[PatternFilter] = set()
    for name in names:
        if name in presets:
            out |= presets[name]
        else:
            try:
                out.add(PatternFilter(name))
            except ValueError:
                raise ValueError(
                    f"unknown filter {_shown(name)}; use table1, theorem or "
                    + ", ".join(f.value for f in PatternFilter)
                )
    return frozenset(out)


def cmd_enumerate(args) -> int:
    m, n = args.shape
    filters = _parse_filters(args.filters, m, n)
    _require_out(args.out, tree=True)
    reps = enumerate_patterns(m, n, args.rank, args.zeros, filters)
    if args.out is not None:
        # Written before the count, so an unwritable directory leaves stdout
        # empty; the width keeps the names sorting past 999 patterns.
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        width = max(3, len(str(len(reps))))
        for idx, pattern in enumerate(reps, start=1):
            (out_dir / f"pattern-{idx:0{width}d}.txt").write_text(
                formats.dump_pattern(pattern), encoding="utf-8"
            )
    print(len(reps))
    return EXIT_OK


def cmd_realize(args) -> int:
    pattern = formats.load_pattern(_read_text(args.pattern))
    if not check_wpoint(pattern):
        return _fail_input(WPOINT_REFUSAL)
    config = RealizationSearchConfig(
        entry_low=args.range[0],
        entry_high=args.range[1],
        max_samples=args.max_samples,
        seed=args.seed,
    )
    _require_out(args.out)
    pair = realize_pattern(pattern, config)
    if pair is None:
        print(f"no rigid realization within {args.max_samples} samples", file=sys.stderr)
        return EXIT_FAILURE
    flags = {"range": list(args.range), "max_samples": args.max_samples}
    _write_certified_pair(pair, args, flags, seed=args.seed)
    return EXIT_OK


def _write_certified_pair(pair, args, flags: dict, seed: int | None = None) -> None:
    # The factorization goes to --out or stdout, then its certificate
    # document to stdout.
    cert = certify(pair, kruskal_budget=args.kruskal_budget)
    text = formats.dump_factorization(pair)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    doc = formats.certificate_to_document(
        cert,
        formats.input_shape(pair),
        flags={**flags, "kruskal_budget": args.kruskal_budget},
        seed=seed,
    )
    sys.stdout.write(formats.dump_json(doc))


def _verify_one(fixture: BenchmarkFactorization) -> tuple[bool, str]:
    pair = fixture.pair()
    product = pair.product()
    expected = fixture.product_matrix()
    if product != expected:
        for i in range(expected.rows):
            for j in range(expected.cols):
                if product[i, j] != expected[i, j]:
                    return False, f"product[{i},{j}] = {product[i, j]}, expected {expected[i, j]}"
    cert = certify(pair)
    if cert.classification is not Classification.INFINITESIMALLY_RIGID:
        return False, f"classification {cert.classification.value}"
    if cert.kruskal_rank != 12:
        return False, f"kruskal rank {cert.kruskal_rank}, expected 12"
    return True, f"dim W {cert.dim_w}, kruskal rank {cert.kruskal_rank}"


def cmd_verify_fixtures(_args) -> int:
    passed = 0
    for fixture in RIGID_5X5:
        ok, detail = _verify_one(fixture)
        print(f"{fixture.name}  {'pass' if ok else 'FAIL'}  {detail}")
        passed += ok
    print(f"{passed}/{len(RIGID_5X5)} fixtures pass")
    return EXIT_OK if passed == len(RIGID_5X5) else EXIT_FAILURE


def cmd_lift(args) -> int:
    pair = formats.load_factorization(_read_text(args.path))
    _require_out(args.out)
    try:
        lifted = lift_partially_rigid(pair)
    except LiftInfeasibleError as exc:
        print(f"lift failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _write_certified_pair(lifted, args, {})
    return EXIT_OK


def _int(text: str) -> int:
    # argparse's own message for type=int, with the value quoted by _shown.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")


def _budget(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {_shown(value)}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the process-wide `nmfr` parser, built on first use.

    Every `main` call parses with this one parser, so callers must not
    mutate it.  Parsing keeps no state on it: each parse makes a fresh
    namespace, and usage, help and errors are formatted at call time.  The
    `cmd_*` functions are bound by `set_defaults` when the parser is built,
    so a test patches the names those commands call (`cli.certify`, say),
    not `cmd_*`.
    """
    parser = argparse.ArgumentParser(
        prog="nmfr",
        description="Exact rigidity certification for nonnegative matrix factorizations.",
    )
    parser.add_argument("--version", action="version", version=f"nmfr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="certify a factorization file")
    check.add_argument("path")
    check.add_argument("--symmetric", action="store_true", help="input is a symmetric factor")
    check.add_argument("--kruskal-budget", type=_budget, default=DEFAULT_KRUSKAL_BUDGET)
    check.add_argument("--json", action="store_true", help="emit the certificate document")
    check.set_defaults(func=cmd_check)

    cp_check = sub.add_parser("cp-check", help="certify a symmetric factor file")
    cp_check.add_argument("path")
    cp_check.add_argument("--kruskal-budget", type=_budget, default=DEFAULT_KRUSKAL_BUDGET)
    cp_check.add_argument("--json", action="store_true")
    cp_check.set_defaults(func=cmd_check, symmetric=True)

    enum = sub.add_parser("enumerate", help="enumerate canonical zero patterns")
    enum.add_argument("--shape", nargs=2, type=_int, required=True, metavar=("M", "N"))
    enum.add_argument("--rank", type=_int, required=True)
    enum.add_argument("--zeros", type=_int, required=True)
    enum.add_argument(
        "--filters",
        default="table1",
        help="comma-separated filter names, or the presets table1 / theorem",
    )
    enum.add_argument("--out", help="directory receiving one pattern file per representative")
    enum.set_defaults(func=cmd_enumerate)

    real = sub.add_parser("realize", help="search for a rigid realization of a pattern")
    real.add_argument("--pattern", required=True)
    real.add_argument("--seed", type=_int, default=1)
    real.add_argument("--range", nargs=2, type=_int, default=(1, 1000), metavar=("LO", "HI"))
    real.add_argument("--max-samples", type=_int, default=10000)
    real.add_argument("--kruskal-budget", type=_budget, default=DEFAULT_KRUSKAL_BUDGET)
    real.add_argument("--out", help="write the factorization here instead of stdout")
    real.set_defaults(func=cmd_realize)

    verify = sub.add_parser("verify-fixtures", help="re-certify the bundled benchmark set")
    verify.set_defaults(func=cmd_verify_fixtures)

    lift = sub.add_parser("lift", help="lift a rigid pair to a partially rigid pair")
    lift.add_argument("path")
    lift.add_argument("--kruskal-budget", type=_budget, default=DEFAULT_KRUSKAL_BUDGET)
    lift.add_argument("--out", help="write the lifted factorization here instead of stdout")
    lift.set_defaults(func=cmd_lift)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Unreadable, non-UTF-8 (UnicodeDecodeError is a ValueError) or
        # malformed input, an unwritable --out, and inputs the library
        # refuses (a non-rigid pair to lift, say).
        return _fail_input(str(exc))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
