"""Command line front end.

Subcommands: check, cp-check, enumerate, realize, verify-fixtures, lift.
Exit codes are a stable contract: 0 success, 1 verification or search
failure, 2 input error.  Output is deterministic byte for byte given the
same inputs and seeds.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from . import __version__, formats
from .cpr import certify_cp
from .fixtures import RIGID_5X5, BenchmarkFactorization
from .patterns import PatternFilter, check_wpoint, enumerate_patterns, table1_filters
from .realize import LiftInfeasibleError, RealizationSearchConfig, lift_partially_rigid, realize_pattern
from .rigidity import DEFAULT_KRUSKAL_BUDGET, Classification, certify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _require_out_dir(out: str | None) -> None:
    # Fail before the work with the error the final write would raise.
    if out is not None and not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "No such file or directory", out)


def _require_out_tree(out: str | None) -> None:
    # Fail before the enumeration with the error that
    # mkdir(parents=True, exist_ok=True) would raise after it, creating nothing.
    if out is None:
        return
    path = Path(out)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        code = errno.EEXIST if nearest == path else errno.ENOTDIR
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
        factor = formats.load_symmetric_factor(text)
        cert = certify_cp(factor, kruskal_budget=args.kruskal_budget)
        shape = {"symmetric": True, "n": factor.n, "r": factor.r}
    else:
        pair = formats.load_factorization(text)
        cert = certify(pair, kruskal_budget=args.kruskal_budget)
        shape = {"symmetric": False, "m": pair.m, "r": pair.r, "n": pair.n}
    if args.json:
        doc = formats.certificate_to_document(
            cert, shape, flags={"kruskal_budget": args.kruskal_budget}
        )
        sys.stdout.write(formats.dump_json(doc))
    else:
        _print_certificate(cert, f"{args.path}:")
    return EXIT_OK


def _parse_filters(spec: str, m: int, n: int) -> frozenset[PatternFilter]:
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    out: set[PatternFilter] = set()
    for name in names:
        if name == "table1":
            out |= table1_filters(m, n)
        elif name == "theorem":
            out |= {
                PatternFilter.WPOINT,
                PatternFilter.ROW_COVERAGE_A,
                PatternFilter.POSITIVE_PRODUCT,
            }
        else:
            try:
                out.add(PatternFilter(name))
            except ValueError:
                raise ValueError(
                    f"unknown filter {name!r}; use table1, theorem or "
                    + ", ".join(f.value for f in PatternFilter)
                )
    return frozenset(out)


def cmd_enumerate(args) -> int:
    m, n = args.shape
    filters = _parse_filters(args.filters, m, n)
    _require_out_tree(args.out)
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
        return _fail_input(
            "pattern fails the zero-count/pair conditions, no rigid realization exists"
        )
    config = RealizationSearchConfig(
        entry_low=args.range[0],
        entry_high=args.range[1],
        max_samples=args.max_samples,
        seed=args.seed,
    )
    _require_out_dir(args.out)
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
        {"symmetric": False, "m": pair.m, "r": pair.r, "n": pair.n},
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
    _require_out_dir(args.out)
    try:
        lifted = lift_partially_rigid(pair)
    except LiftInfeasibleError as exc:
        print(f"lift failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _write_certified_pair(lifted, args, {})
    return EXIT_OK


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    enum.add_argument("--shape", nargs=2, type=int, required=True, metavar=("M", "N"))
    enum.add_argument("--rank", type=int, required=True)
    enum.add_argument("--zeros", type=int, required=True)
    enum.add_argument(
        "--filters",
        default="table1",
        help="comma-separated filter names, or the presets table1 / theorem",
    )
    enum.add_argument("--out", help="directory receiving one pattern file per representative")
    enum.set_defaults(func=cmd_enumerate)

    real = sub.add_parser("realize", help="search for a rigid realization of a pattern")
    real.add_argument("--pattern", required=True)
    real.add_argument("--seed", type=int, default=1)
    real.add_argument("--range", nargs=2, type=int, default=(1, 1000), metavar=("LO", "HI"))
    real.add_argument("--max-samples", type=int, default=10000)
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
