"""Text formats and certificate documents.

Matrix files carry a "rows cols" header line followed by rows of
whitespace-separated rational tokens; a factorization file is two matrix
blocks separated by a blank line (A then B).  Pattern files start with
"m n r", then the A-pattern as m lines over {'.', '0'}, a blank line, and
the B-pattern as r lines ('0' marks a forced zero).  Certificates
serialize to a single JSON tree with string keys; rationals are written as
"p" or "p/q" strings so nothing is ever rounded.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from . import __version__
from .cone import verify_witness
from .cpr import SymmetricFactor, build_skew_generators
from .exactlin import RationalMatrix, _shown
from .patterns import ZeroPattern
from .rigidity import (
    DEFAULT_KRUSKAL_BUDGET,
    Classification,
    FactorizationPair,
    RigidityCertificate,
    _certify_generators,
    build_dual_generators,
)


class ParseError(ValueError):
    pass


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(token: str) -> Fraction:
    """Parse 'p' or 'p/q' with a positive integer denominator."""
    match = _RATIONAL_RE.match(token)
    if not match:
        raise ParseError(f"not a rational token: {_shown(token)}")
    # Built from the matched integers: Fraction(token) would parse the
    # token a second time.
    num, den = match.groups()
    try:
        if den is None:
            return Fraction(int(num))
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {_shown(token)}") from exc
    except ValueError as exc:  # the interpreter's integer string length limit
        raise ParseError(
            f"rational token {token[:20]}... exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


def format_rational(value: Fraction) -> str:
    return str(value)


def _blocks(text: str, count: int, what: str) -> list[list[str]]:
    """The runs of non-blank lines, which must number `count`; `what` opens the error."""
    blocks: list[list[str]] = []
    current: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            current.append(line)
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    if len(blocks) != count:
        raise ParseError(f"{what}, found {len(blocks)}")
    return blocks


def _header(line: str, kind: str, names: str) -> list[int]:
    """The integers of a header line with one field per name in `names`."""
    shown = _shown(line)
    fields = line.split()
    if len(fields) != len(names.split()):
        raise ParseError(f"{kind} header must be '{names}', got {shown}")
    try:
        return [int(tok) for tok in fields]
    except ValueError as exc:
        raise ParseError(f"bad {kind} header {shown}") from exc


def _matrix_from_block(lines: list[str]) -> RationalMatrix:
    rows, cols = _header(lines[0], "matrix", "rows cols")
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {_shown(rows)} matrix rows, found {len(lines) - 1}")
    data = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(
                f"expected {_shown(cols)} entries per row, got {len(tokens)} in {_shown(line)}"
            )
        data.extend(parse_rational(tok) for tok in tokens)
    return RationalMatrix(rows, cols, tuple(data))


def dump_matrix(matrix: RationalMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    for i in range(matrix.rows):
        lines.append(" ".join(format_rational(x) for x in matrix.row(i)))
    return "\n".join(lines) + "\n"


def load_factorization(text: str) -> FactorizationPair:
    blocks = _blocks(text, 2, "factorization file must contain two blocks (A, blank line, B)")
    return FactorizationPair(*map(_matrix_from_block, blocks))


def dump_factorization(pair: FactorizationPair) -> str:
    return dump_matrix(pair.a) + "\n" + dump_matrix(pair.b)


def load_symmetric_factor(text: str) -> SymmetricFactor:
    (block,) = _blocks(text, 1, "symmetric factor file must contain one block")
    return SymmetricFactor(_matrix_from_block(block))


def load_pattern(text: str) -> ZeroPattern:
    head, b_lines = _blocks(
        text, 2, "pattern file must contain a header+A block, blank line, B block"
    )
    m, n, r = _header(head[0], "pattern", "m n r")
    a_lines = head[1:]
    if len(a_lines) != m or len(b_lines) != r:
        counts = f"{len(a_lines)} and {len(b_lines)}"
        raise ParseError(f"expected {_shown(m)} A-rows and {_shown(r)} B-rows, got {counts}")

    def decode(lines: list[str], width: int) -> tuple[tuple[bool, ...], ...]:
        rows = []
        for line in lines:
            if len(line) != width or any(ch not in ".0" for ch in line):
                raise ParseError(
                    f"pattern row must be {_shown(width)} chars over '.0', got {_shown(line)}"
                )
            rows.append(tuple(ch == "0" for ch in line))
        return tuple(rows)

    return ZeroPattern(m, n, r, decode(a_lines, r), decode(b_lines, n))


def dump_pattern(pattern: ZeroPattern) -> str:
    lines = [f"{pattern.m} {pattern.n} {pattern.r}"]
    for row in pattern.zeros_a:
        lines.append("".join("0" if x else "." for x in row))
    lines.append("")
    for row in pattern.zeros_b:
        lines.append("".join("0" if x else "." for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Certificate documents
# ---------------------------------------------------------------------------

def _matrix_tree(matrix: RationalMatrix) -> list[list[str]]:
    return [[format_rational(x) for x in matrix.row(i)] for i in range(matrix.rows)]


def input_shape(subject) -> dict:
    """The "input" object of a certificate document for `subject`, a
    FactorizationPair or a SymmetricFactor."""
    if isinstance(subject, SymmetricFactor):
        return {"symmetric": True, "n": subject.n, "r": subject.r}
    return {"symmetric": False, "m": subject.m, "r": subject.r, "n": subject.n}


# The integer fields of the "certificate" object, in document order: (JSON
# key, RigidityCertificate attribute).  Only "kruskal_rank" may be null.
_INT_FIELDS = (
    ("inner_rank", "r"),
    ("ambient_dim", "ambient_dim"),
    ("generator_count", "generator_count"),
    ("span_rank", "span_rank"),
    ("lineality_dim", "lineality_dim"),
    ("dim_w", "dim_w"),
    ("kruskal_rank", "kruskal_rank"),
)


def certificate_to_document(
    cert: RigidityCertificate,
    input_shape: dict,
    flags: dict | None = None,
    seed: int | None = None,
) -> dict:
    """Self-describing JSON tree for one certificate."""
    witness = None
    if cert.relint_witness is not None:
        witness = [format_rational(c) for c in cert.relint_witness]
    v_basis = None
    if cert.v_basis is not None:
        v_basis = [_matrix_tree(mat) for mat in cert.v_basis]
    return {
        "tool": "nmfrigid",
        "version": __version__,
        "kind": "rigidity-certificate",
        "input": dict(input_shape),
        "flags": dict(flags or {}),
        "seed": seed,
        "certificate": {
            "symmetric": cert.symmetric,
            "classification": cert.classification.value,
            **{key: getattr(cert, attr) for key, attr in _INT_FIELDS},
            "relint_witness": witness,
            "v_basis": v_basis,
            "v_support": [list(entry) for entry in cert.v_support()] or None,
        },
    }


_BODY_KEYS = frozenset(key for key, _ in _INT_FIELDS) | {
    "symmetric", "classification", "relint_witness", "v_basis", "v_support",
}


def _is_token_tree(tree, depth: int) -> bool:
    # `depth` levels of lists with rational strings at the leaves.
    if depth == 0:
        return isinstance(tree, str)
    return isinstance(tree, list) and all(_is_token_tree(t, depth - 1) for t in tree)


def _same_tree(a, b) -> bool:
    # Equal with equal types throughout, so 1, 1.0 and true all differ.
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_tree(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_tree, a, b))
    return a == b


def document_to_certificate(doc: dict) -> RigidityCertificate:
    """Rebuild the certificate object from its JSON tree (lossless).

    Raises ValueError when the tree is not shaped like a certificate
    document: "kind" not "rigidity-certificate", no "certificate" object
    with exactly the known keys, an integer field that is not an int (a
    float or a bool is refused), "symmetric" not a bool, "flags" neither an
    object nor null, or a witness or V-basis that is not null or nested
    lists of rational strings.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "rigidity-certificate":
        raise ValueError("not a certificate document: \"kind\" is not \"rigidity-certificate\"")
    body = doc.get("certificate")
    if not isinstance(body, dict) or not _BODY_KEYS <= body.keys():
        raise ValueError("not a certificate document: no complete \"certificate\" object")
    unknown = sorted(body.keys() - _BODY_KEYS)
    if unknown:
        raise ValueError(f"unknown \"certificate\" key {_shown(unknown[0])}")
    for key, _ in _INT_FIELDS:
        if type(body[key]) is not int and not (key == "kruskal_rank" and body[key] is None):
            raise ValueError(f"{key} must be an integer, got {_shown(body[key])}")
    if type(body["symmetric"]) is not bool:
        raise ValueError(f"symmetric must be true or false, got {_shown(body['symmetric'])}")
    if body["classification"] not in [c.value for c in Classification]:
        raise ValueError(f"{_shown(body['classification'])} is not a valid Classification")
    if not isinstance(doc.get("flags") or {}, dict):
        raise ValueError("\"flags\" must be an object or null")
    for name, depth in (("relint_witness", 1), ("v_basis", 3)):
        if body[name] is not None and not _is_token_tree(body[name], depth):
            raise ValueError(f"{name} must be null or nested lists of rational strings")
    witness = None
    if body["relint_witness"] is not None:
        witness = tuple(parse_rational(tok) for tok in body["relint_witness"])
    v_basis = None
    if body["v_basis"] is not None:
        v_basis = tuple(
            RationalMatrix.from_rows([[parse_rational(tok) for tok in row] for row in tree])
            for tree in body["v_basis"]
        )
    return RigidityCertificate(
        **{attr: body[key] for key, attr in _INT_FIELDS},
        relint_witness=witness,
        classification=Classification(body["classification"]),
        v_basis=v_basis,
        symmetric=body["symmetric"],
    )


def verify_certificate_document(doc: dict, subject) -> bool:
    """Re-check a document against the factorization it certifies.

    Certifies the generators of `subject` (a FactorizationPair or
    SymmetricFactor) again.  A recorded witness must re-verify by plain
    arithmetic (it combines the generators exactly to zero with all
    coefficients >= 1), and one must be recorded whenever the recomputation
    finds one.  Every other field, "input" included, must equal its
    recomputed value as `certificate_to_document` writes both (rationals
    compare by value); the Kruskal rank under the flags' `kruskal_budget`,
    or, when none is recorded, under `DEFAULT_KRUSKAL_BUDGET` unless it is
    null.  Raises ValueError naming the first differing key, returns True
    otherwise.
    """
    cert = document_to_certificate(doc)
    build = build_skew_generators if isinstance(subject, SymmetricFactor) else build_dual_generators
    gens = build(subject)
    budget = (doc.get("flags") or {}).get("kruskal_budget")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError(f"kruskal_budget flag must be a nonnegative integer, got {_shown(budget)}")
    if budget is None and cert.kruskal_rank is not None:
        budget = DEFAULT_KRUSKAL_BUDGET
    recomputed = _certify_generators(gens, budget or 0)
    if cert.relint_witness is not None and not verify_witness(gens.matrix(), cert.relint_witness):
        raise ValueError(
            "witness does not combine the generators exactly to zero with coefficients >= 1"
        )
    if cert.relint_witness is None and recomputed.relint_witness is not None:
        raise ValueError("document records no witness, recomputation finds one")
    # The reader keeps neither the input shape nor the V support.
    recorded = {"input": doc.get("input"), **certificate_to_document(cert, {})["certificate"]}
    recorded["v_support"] = doc["certificate"]["v_support"]
    derived = {"input": input_shape(subject)}
    derived.update(certificate_to_document(recomputed, {})["certificate"])
    skip = {"relint_witness"} if budget is not None else {"relint_witness", "kruskal_rank"}
    for key, value in derived.items():
        if key not in skip and not _same_tree(recorded[key], value):
            raise ValueError(f"{key} mismatch: document {_shown(recorded[key])}, recomputed {_shown(value)}")
    return True


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
