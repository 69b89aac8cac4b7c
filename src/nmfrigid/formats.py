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
from fractions import Fraction

from . import __version__
from .cone import verify_witness
from .cpr import SymmetricFactor, build_skew_generators
from .exactlin import RationalMatrix
from .patterns import ZeroPattern
from .rigidity import (
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
        raise ParseError(f"not a rational token: {token!r}")
    # Built from the matched integers: Fraction(token) would parse the
    # token a second time.
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {token!r}") from exc


def format_rational(value: Fraction) -> str:
    return str(value)


def _blocks(text: str) -> list[list[str]]:
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
    return blocks


def _matrix_from_block(lines: list[str]) -> RationalMatrix:
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"matrix header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} matrix rows, found {len(lines) - 1}")
    data = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries per row, got {len(tokens)} in {line!r}")
        data.extend(parse_rational(tok) for tok in tokens)
    return RationalMatrix(rows, cols, tuple(data))


def load_matrix(text: str) -> RationalMatrix:
    blocks = _blocks(text)
    if len(blocks) != 1:
        raise ParseError(f"matrix file must contain one block, found {len(blocks)}")
    return _matrix_from_block(blocks[0])


def dump_matrix(matrix: RationalMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    for i in range(matrix.rows):
        lines.append(" ".join(format_rational(x) for x in matrix.row(i)))
    return "\n".join(lines) + "\n"


def load_factorization(text: str) -> FactorizationPair:
    blocks = _blocks(text)
    if len(blocks) != 2:
        raise ParseError(
            f"factorization file must contain two blocks (A, blank line, B), found {len(blocks)}"
        )
    a = _matrix_from_block(blocks[0])
    b = _matrix_from_block(blocks[1])
    return FactorizationPair(a, b)


def dump_factorization(pair: FactorizationPair) -> str:
    return dump_matrix(pair.a) + "\n" + dump_matrix(pair.b)


def load_symmetric_factor(text: str) -> SymmetricFactor:
    blocks = _blocks(text)
    if len(blocks) != 1:
        raise ParseError(f"symmetric factor file must contain one block, found {len(blocks)}")
    return SymmetricFactor(_matrix_from_block(blocks[0]))


def dump_symmetric_factor(factor: SymmetricFactor) -> str:
    return dump_matrix(factor.a)


def load_pattern(text: str) -> ZeroPattern:
    blocks = _blocks(text)
    if len(blocks) != 2:
        raise ParseError("pattern file must contain a header+A block, blank line, B block")
    header = blocks[0][0].split()
    if len(header) != 3:
        raise ParseError(f"pattern header must be 'm n r', got {blocks[0][0]!r}")
    try:
        m, n, r = (int(tok) for tok in header)
    except ValueError as exc:
        raise ParseError(f"bad pattern header {blocks[0][0]!r}") from exc
    a_lines = blocks[0][1:]
    b_lines = blocks[1]
    if len(a_lines) != m or len(b_lines) != r:
        raise ParseError(f"expected {m} A-rows and {r} B-rows, got {len(a_lines)} and {len(b_lines)}")

    def decode(lines: list[str], width: int) -> tuple[tuple[bool, ...], ...]:
        rows = []
        for line in lines:
            if len(line) != width or any(ch not in ".0" for ch in line):
                raise ParseError(f"pattern row must be {width} chars over '.0', got {line!r}")
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
            "inner_rank": cert.r,
            "ambient_dim": cert.ambient_dim,
            "generator_count": cert.generator_count,
            "span_rank": cert.span_rank,
            "lineality_dim": cert.lineality_dim,
            "dim_w": cert.dim_w,
            "kruskal_rank": cert.kruskal_rank,
            "relint_witness": witness,
            "v_basis": v_basis,
            "v_support": [list(entry) for entry in cert.v_support()] or None,
        },
    }


_INT_KEYS = ("inner_rank", "ambient_dim", "generator_count", "span_rank", "lineality_dim", "dim_w")
_BODY_KEYS = frozenset(_INT_KEYS) | {
    "symmetric", "classification", "kruskal_rank", "relint_witness", "v_basis", "v_support",
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
    with every field, an integer field that is not an int (a float or a
    bool is refused), "symmetric" not a bool, "flags" neither an object nor
    null, or a witness or V-basis that is not null or nested lists of
    rational strings.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "rigidity-certificate":
        raise ValueError("not a certificate document: \"kind\" is not \"rigidity-certificate\"")
    body = doc.get("certificate")
    if not isinstance(body, dict) or not _BODY_KEYS <= body.keys():
        raise ValueError("not a certificate document: no complete \"certificate\" object")
    for name in _INT_KEYS + ("kruskal_rank",):
        if type(body[name]) is not int and not (name == "kruskal_rank" and body[name] is None):
            raise ValueError(f"{name} must be an integer, got {body[name]!r}")
    if type(body["symmetric"]) is not bool:
        raise ValueError(f"symmetric must be true or false, got {body['symmetric']!r}")
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
        mats = []
        for tree in body["v_basis"]:
            rows = [[parse_rational(tok) for tok in row] for row in tree]
            mats.append(RationalMatrix.from_rows(rows))
        v_basis = tuple(mats)
    return RigidityCertificate(
        r=body["inner_rank"],
        ambient_dim=body["ambient_dim"],
        generator_count=body["generator_count"],
        span_rank=body["span_rank"],
        lineality_dim=body["lineality_dim"],
        relint_witness=witness,
        dim_w=body["dim_w"],
        classification=Classification(body["classification"]),
        v_basis=v_basis,
        kruskal_rank=body["kruskal_rank"],
        symmetric=body["symmetric"],
    )


def verify_certificate_document(doc: dict, subject) -> bool:
    """Re-check a document against the factorization it certifies.

    Certifies the generators of `subject` (a FactorizationPair or
    SymmetricFactor) again, so no recorded field of the certificate is
    taken on trust: the input shape, generator count, span rank, lineality,
    dim_w, classification, V-basis and V support are always compared with
    the recomputed ones, the Kruskal rank only when the document's flags
    record the `kruskal_budget` it was computed under.  A recorded witness
    must re-verify by plain arithmetic (it combines the generators exactly
    to zero with all coefficients >= 1), and one must be recorded whenever
    the recomputation finds one.  Raises ValueError with the first
    discrepancy, returns True otherwise.
    """
    cert = document_to_certificate(doc)
    symmetric = isinstance(subject, SymmetricFactor)
    gens = build_skew_generators(subject) if symmetric else build_dual_generators(subject)
    shape = input_shape(subject)
    if not _same_tree(doc.get("input"), shape):
        raise ValueError(f"input mismatch: document {doc.get('input')!r}, input {shape!r}")
    if gens.count != cert.generator_count:
        raise ValueError(
            f"generator count mismatch: document {cert.generator_count}, input {gens.count}"
        )
    budget = (doc.get("flags") or {}).get("kruskal_budget")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError(f"kruskal_budget flag must be a nonnegative integer, got {budget!r}")
    matrix = gens.matrix()
    recomputed = _certify_generators(gens, matrix, kruskal_budget=budget or 0, symmetric=symmetric)
    if cert.span_rank != recomputed.span_rank:
        raise ValueError(
            f"span rank mismatch: document {cert.span_rank}, recomputed {recomputed.span_rank}"
        )
    if cert.relint_witness is not None and not verify_witness(matrix, cert.relint_witness):
        raise ValueError(
            "witness does not combine the generators exactly to zero with coefficients >= 1"
        )
    if cert.relint_witness is None and recomputed.relint_witness is not None:
        raise ValueError("document records no witness, recomputation finds one")
    fields = [
        "symmetric", "r", "ambient_dim", "lineality_dim", "dim_w", "classification", "v_basis"
    ]
    if budget is not None:
        fields.append("kruskal_rank")
    for name in fields:
        recorded, derived = getattr(cert, name), getattr(recomputed, name)
        if recorded != derived:
            raise ValueError(f"{name} mismatch: document {recorded!r}, recomputed {derived!r}")
    support = [list(entry) for entry in recomputed.v_support()] or None
    if not _same_tree(doc["certificate"]["v_support"], support):
        raise ValueError(
            f"v_support mismatch: document {doc['certificate']['v_support']!r}, recomputed {support!r}"
        )
    return True


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
