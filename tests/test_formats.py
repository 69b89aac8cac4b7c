import sys
from fractions import Fraction

import pytest

from nmfrigid import formats
from nmfrigid.cpr import SymmetricFactor, certify_cp
from nmfrigid.exactlin import RationalMatrix
from nmfrigid.fixtures import RIGID_5X5, lift_demo_pair, unique_7_zero_pattern_r3
from nmfrigid.rigidity import Classification, certify
from test_exactlin import identity_matrix


def test_parse_rational_values():
    assert formats.parse_rational("-3/7") == Fraction(-3, 7)
    assert formats.parse_rational("12") == 12
    assert formats.parse_rational("+4/6") == Fraction(2, 3)


@pytest.mark.parametrize(
    "token, value",
    [
        ("+3", 3),
        ("-0", 0),
        ("007/014", Fraction(1, 2)),
        ("-12/8", Fraction(-3, 2)),
        ("\u0663", 3),
        ("1\u0663/\u0664", Fraction(13, 4)),
        ("5/1\n", 5),
    ],
)
def test_parse_rational_agrees_with_fraction_parsing(token, value):
    # Signs, leading zeros and non-ASCII decimal digits are accepted, with
    # the value Fraction(token) gives.
    got = formats.parse_rational(token)
    assert (type(got), got) == (Fraction, value)
    assert got == Fraction(token)


@pytest.mark.parametrize("token", ["1.5", "3/-7", "1/-2", "1/0x2", "a", "", "2/", " 3"])
def test_parse_rational_rejects_bad_tokens(token):
    with pytest.raises(formats.ParseError, match="not a rational token"):
        formats.parse_rational(token)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(formats.ParseError, match="denominator"):
        formats.parse_rational("1/0")
    with pytest.raises(formats.ParseError, match=r"^zero denominator in '3/0'$"):
        formats.parse_rational("3/0")


def test_parse_rational_rejects_tokens_over_the_digit_limit():
    limit = f"limit of {sys.get_int_max_str_digits()} digits"
    for token in ("7" * 5000, "1/" + "3" * 5000):
        with pytest.raises(formats.ParseError, match=limit) as exc:
            formats.parse_rational(token)
        assert token[:20] in str(exc.value) and len(str(exc.value)) < 80


def test_matrix_round_trip():
    m = RationalMatrix.from_rows([[Fraction(1, 2), 3], [Fraction(-5, 7), 0]])
    assert formats.load_matrix(formats.dump_matrix(m)) == m


def test_matrix_header_errors():
    with pytest.raises(formats.ParseError, match="header"):
        formats.load_matrix("2\n1 2\n3 4\n")
    with pytest.raises(formats.ParseError, match="rows"):
        formats.load_matrix("3 2\n1 2\n3 4\n")
    with pytest.raises(formats.ParseError, match="entries"):
        formats.load_matrix("2 2\n1 2 3\n4 5\n")


def test_matrix_row_count_error_names_both_counts():
    with pytest.raises(formats.ParseError, match=r"^expected 3 matrix rows, found 2$"):
        formats.load_matrix("3 2\n1 2\n3 4\n")


def test_factorization_round_trip():
    pair = RIGID_5X5[0].pair()
    again = formats.load_factorization(formats.dump_factorization(pair))
    assert again.a == pair.a and again.b == pair.b


def test_factorization_requires_two_blocks():
    with pytest.raises(formats.ParseError, match="two blocks"):
        formats.load_factorization("2 2\n1 2\n3 4\n")


def test_symmetric_round_trip():
    factor = SymmetricFactor(identity_matrix(3))
    again = formats.load_symmetric_factor(formats.dump_symmetric_factor(factor))
    assert again.a == factor.a


def test_pattern_round_trip():
    pattern = unique_7_zero_pattern_r3()
    text = formats.dump_pattern(pattern)
    assert formats.load_pattern(text) == pattern
    header, first_row = text.splitlines()[:2]
    assert header == "4 3 3"
    assert first_row == "0.."


def test_pattern_bad_rows():
    with pytest.raises(formats.ParseError, match="'.0'"):
        formats.load_pattern("2 2 2\n0x\n.0\n\n0.\n.0\n")


def test_certificate_document_round_trip_and_verify():
    pair = RIGID_5X5[0].pair()
    cert = certify(pair)
    doc = formats.certificate_to_document(
        cert, {"symmetric": False, "m": pair.m, "r": pair.r, "n": pair.n},
        flags={"kruskal_budget": 10**6},
    )
    text = formats.dump_json(doc)
    import json

    reread = json.loads(text)
    rebuilt = formats.document_to_certificate(reread)
    assert rebuilt == cert
    assert formats.verify_certificate_document(reread, pair)


def test_certificate_document_with_v_basis_round_trip():
    from nmfrigid.realize import lift_partially_rigid

    lifted = lift_partially_rigid(lift_demo_pair())
    cert = certify(lifted, kruskal_budget=0)
    doc = formats.certificate_to_document(
        cert, {"symmetric": False, "m": lifted.m, "r": lifted.r, "n": lifted.n}
    )
    import json

    rebuilt = formats.document_to_certificate(json.loads(formats.dump_json(doc)))
    assert rebuilt == cert
    assert formats.verify_certificate_document(json.loads(formats.dump_json(doc)), lifted)


def test_certificate_verify_symmetric():
    factor = SymmetricFactor(identity_matrix(4))
    cert = certify_cp(factor)
    doc = formats.certificate_to_document(cert, {"symmetric": True, "n": 4, "r": 4})
    assert formats.verify_certificate_document(doc, factor)


def test_certificate_verify_detects_tampering():
    pair = RIGID_5X5[0].pair()
    cert = certify(pair)
    doc = formats.certificate_to_document(
        cert, {"symmetric": False, "m": pair.m, "r": pair.r, "n": pair.n}
    )
    doc["certificate"]["span_rank"] = 11
    with pytest.raises(ValueError, match="span_rank"):
        formats.verify_certificate_document(doc, pair)

    doc["certificate"]["span_rank"] = 12
    doc["certificate"]["relint_witness"][0] = "1/2"
    with pytest.raises(ValueError, match="witness"):
        formats.verify_certificate_document(doc, pair)


def _rigid_document(budget=10**6):
    pair = RIGID_5X5[0].pair()
    flags = {} if budget is None else {"kruskal_budget": budget}
    cert = certify(pair, kruskal_budget=budget or 0)
    shape = {"symmetric": False, "m": pair.m, "r": pair.r, "n": pair.n}
    return pair, formats.certificate_to_document(cert, shape, flags=flags)


def test_forged_interior_certificate_is_rejected():
    # A rigid fixture's document rewritten to claim the opposite verdict,
    # with every field consistent with every other field.
    pair, doc = _rigid_document()
    body = doc["certificate"]
    body.update(
        classification="interior-certified",
        lineality_dim=0,
        dim_w=16,
        relint_witness=None,
        kruskal_rank=3,
    )
    with pytest.raises(ValueError, match="witness"):
        formats.verify_certificate_document(doc, pair)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("classification", "undetermined", "classification"),
        ("lineality_dim", 11, "lineality_dim"),
        ("dim_w", 5, "dim_w"),
        ("inner_rank", 3, "inner_rank"),
        ("v_basis", [[["0"] * 4] * 4], "v_basis"),
        ("kruskal_rank", 11, "kruskal_rank"),
    ],
)
def test_verify_rederives_every_recorded_field(field, value, message):
    pair, doc = _rigid_document()
    doc["certificate"][field] = value
    with pytest.raises(ValueError, match=message):
        formats.verify_certificate_document(doc, pair)


def test_verify_checks_kruskal_rank_under_the_recorded_or_default_budget():
    # What `certify` writes by default: the rank under the default budget,
    # with no flags recorded.  Without a recorded budget an integer rank is
    # checked under the default one, and null is accepted.
    pair = RIGID_5X5[0].pair()
    shape = {"symmetric": False, "m": pair.m, "r": pair.r, "n": pair.n}
    doc = formats.certificate_to_document(certify(pair), shape)
    assert doc["flags"] == {} and doc["certificate"]["kruskal_rank"] == 12
    assert formats.verify_certificate_document(doc, pair)
    for forged in (3, -1, 99):
        doc["certificate"]["kruskal_rank"] = forged
        with pytest.raises(ValueError, match="kruskal_rank"):
            formats.verify_certificate_document(doc, pair)
    pair, doc = _rigid_document(budget=None)
    assert doc["certificate"]["kruskal_rank"] is None
    assert formats.verify_certificate_document(doc, pair)
    doc["certificate"]["kruskal_rank"] = 3
    doc["flags"]["kruskal_budget"] = 13
    with pytest.raises(ValueError, match="kruskal_rank"):
        formats.verify_certificate_document(doc, pair)
    doc["certificate"]["kruskal_rank"] = 12
    assert formats.verify_certificate_document(doc, pair)
    doc["flags"]["kruskal_budget"] = 12  # one short of the 13 subset tests
    with pytest.raises(ValueError, match="kruskal_rank"):
        formats.verify_certificate_document(doc, pair)
    for bad in (-1, "13", 1.5, True):
        doc["flags"]["kruskal_budget"] = bad
        with pytest.raises(ValueError, match="kruskal_budget"):
            formats.verify_certificate_document(doc, pair)


def test_verify_accepts_a_recorded_zero_budget():
    # Budget 0 is a valid flag: the Kruskal rank was not computed.
    pair, doc = _rigid_document(budget=0)
    assert doc["flags"] == {"kruskal_budget": 0} and doc["certificate"]["kruskal_rank"] is None
    assert formats.verify_certificate_document(doc, pair)


def test_verify_refuses_an_unknown_certificate_key():
    pair, doc = _rigid_document()
    assert formats.verify_certificate_document(doc, pair)
    doc["certificate"]["farkas"] = [1]
    with pytest.raises(ValueError, match="unknown \"certificate\" key 'farkas'"):
        formats.verify_certificate_document(doc, pair)


def test_verify_rejects_forged_symmetric_verdict():
    factor = SymmetricFactor(RIGID_5X5[0].pair().b.transpose())
    cert = certify_cp(factor)
    doc = formats.certificate_to_document(
        cert, {"symmetric": True, "n": factor.n, "r": factor.r}, flags={"kruskal_budget": 10**6}
    )
    assert doc["certificate"]["classification"] == "not-rigid"
    doc["certificate"]["classification"] = "infinitesimally-rigid"
    with pytest.raises(ValueError, match="classification"):
        formats.verify_certificate_document(doc, factor)


def _with_body(doc, **fields):
    return {**doc, "certificate": {**doc["certificate"], **fields}}


@pytest.mark.parametrize(
    "malform",
    [
        lambda doc: {**doc, "flags": [1]},
        lambda doc: {key: value for key, value in doc.items() if key != "certificate"},
        lambda doc: _with_body(doc, relint_witness=7),
        lambda doc: _with_body(doc, relint_witness=[1.0] * 13),
        lambda doc: [doc],
        lambda doc: {**doc, "certificate": [doc["certificate"]]},
    ],
    ids=[
        "flags-list", "no-certificate", "int-witness", "float-tokens", "document-list",
        "certificate-list",
    ],
)
def test_verify_rejects_a_malformed_document_with_value_error(malform):
    pair, doc = _rigid_document()
    with pytest.raises(ValueError):
        formats.verify_certificate_document(malform(doc), pair)


def _lifted_document():
    from nmfrigid.realize import lift_partially_rigid

    lifted = lift_partially_rigid(lift_demo_pair())
    cert = certify(lifted)
    shape = {"symmetric": False, "m": lifted.m, "r": lifted.r, "n": lifted.n}
    return lifted, formats.certificate_to_document(cert, shape, flags={"kruskal_budget": 10**6})


def _symmetric_document():
    factor = SymmetricFactor(identity_matrix(4))
    doc = formats.certificate_to_document(
        certify_cp(factor), {"symmetric": True, "n": 4, "r": 4}, flags={"kruskal_budget": 10**6}
    )
    assert doc["certificate"]["dim_w"] == 0
    return factor, doc


@pytest.mark.parametrize(
    "document, path, value, message",
    [
        (_rigid_document, ("certificate", "v_support"), [[1, 2]], "v_support"),
        (_lifted_document, ("certificate", "v_support"), [[0, 0]], "v_support"),
        (_lifted_document, ("certificate", "v_support"), [[0.0, 3], [1, 3], [2, 3]], "v_support"),
        (_rigid_document, ("input",), {"symmetric": True, "m": 99}, "input"),
        (_rigid_document, ("input", "m"), 5.0, "input"),
        (_rigid_document, ("kind",), "rigidity-report", "kind"),
        (_rigid_document, ("certificate", "generator_count"), 13.0, "generator_count"),
        (_rigid_document, ("certificate", "span_rank"), 12.0, "span_rank"),
        (_rigid_document, ("certificate", "kruskal_rank"), 12.0, "kruskal_rank"),
        (_rigid_document, ("certificate", "symmetric"), 0, "symmetric"),
        (_symmetric_document, ("certificate", "dim_w"), False, "dim_w"),
    ],
    ids=[
        "v-support-on-rigid", "v-support-on-lifted", "float-v-support", "input-shape",
        "float-input", "kind", "float-generator-count", "float-span-rank", "float-kruskal-rank",
        "int-symmetric", "bool-dim-w",
    ],
)
def test_verify_rejects_a_forged_header_support_or_field_type(document, path, value, message):
    subject, doc = document()
    assert formats.verify_certificate_document(doc, subject)
    *parents, leaf = path
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = value
    with pytest.raises(ValueError, match=message):
        formats.verify_certificate_document(doc, subject)


@pytest.mark.parametrize(
    "document", [_rigid_document, _lifted_document, _symmetric_document],
    ids=["rigid", "lifted", "symmetric"],
)
def test_verify_builds_the_generator_matrix_once(monkeypatch, document):
    # The recomputation and the witness check read one generator matrix.
    from test_rigidity import count_matrix_builds

    subject, doc = document()
    count = doc["certificate"]["generator_count"]
    builds = count_matrix_builds(monkeypatch)
    assert formats.verify_certificate_document(doc, subject)
    assert builds == [count]


def _forged(value):
    # A different value of the same JSON type: the first leaf changed.
    if isinstance(value, list):
        return [_forged(value[0]), *value[1:]]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    verdicts = [c.value for c in Classification]
    if value in verdicts:
        return verdicts[(verdicts.index(value) + 1) % len(verdicts)]
    return formats.format_rational(formats.parse_rational(value) + 1)


def test_verify_names_each_forged_certificate_key():
    # Under a recorded budget every key but the witness, which is checked by
    # arithmetic, must equal its recomputed value.
    subject, doc = _lifted_document()
    body = doc["certificate"]
    keys = [key for key in body if key != "relint_witness"]
    assert None not in [body[key] for key in keys]
    for key in keys:
        forged = _with_body(doc, **{key: _forged(body[key])})
        assert type(forged["certificate"][key]) is type(body[key])
        with pytest.raises(ValueError, match=f"^{key} mismatch: document "):
            formats.verify_certificate_document(forged, subject)


def test_verify_compares_v_basis_tokens_by_value():
    subject, doc = _lifted_document()
    first = doc["certificate"]["v_basis"][0]
    assert first[0][0] == "0" and first[0][3] == "1"
    first[0][0], first[0][3] = "0/5", "2/2"
    assert formats.verify_certificate_document(doc, subject)


_LONG = "x" * 5000


def _flagged(doc, budget):
    return {**doc, "flags": {"kruskal_budget": budget}}


@pytest.mark.parametrize(
    "make, limit",
    [
        (lambda doc: _with_body(doc, span_rank=_LONG), 100),
        (lambda doc: _with_body(doc, symmetric=_LONG), 100),
        (lambda doc: _with_body(doc, classification=_LONG), 100),
        (lambda doc: _flagged(doc, _LONG), 100),
        (lambda doc: _with_body(doc, v_support=[[0, 0]] * 1000), 130),
        (lambda doc: {**doc, "input": {"m": _LONG}}, 130),
    ],
    ids=["integer-field", "symmetric", "classification", "budget-flag", "v-support", "input"],
)
def test_document_errors_quote_long_values_briefly(make, limit):
    # A field, a flag or a header of 5,000 characters: the message quotes
    # its first 40, and a mismatch also the first 40 of the recomputed value.
    pair, doc = _rigid_document()
    with pytest.raises(ValueError) as exc:
        formats.verify_certificate_document(make(doc), pair)
    assert "..." in str(exc.value) and len(str(exc.value)) <= limit


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda doc: _with_body(doc, span_rank=12.0), "span_rank must be an integer, got 12.0"),
        (lambda doc: _with_body(doc, symmetric=0), "symmetric must be true or false, got 0"),
        (lambda doc: _with_body(doc, classification="rigid"), "'rigid' is not a valid Classification"),
        (lambda doc: _with_body(doc, classification=None), "None is not a valid Classification"),
        (
            lambda doc: _flagged(doc, "13"),
            "kruskal_budget flag must be a nonnegative integer, got '13'",
        ),
        (lambda doc: _with_body(doc, dim_w=5), "dim_w mismatch: document 5, recomputed 4"),
        (
            lambda doc: _with_body(doc, v_support=[[1, 2]]),
            "v_support mismatch: document [[1, 2]], recomputed None",
        ),
    ],
)
def test_document_errors_keep_their_bytes_for_short_values(make, message):
    pair, doc = _rigid_document()
    with pytest.raises(ValueError) as exc:
        formats.verify_certificate_document(make(doc), pair)
    assert str(exc.value) == message


def test_a_budget_flag_too_long_for_str_keeps_its_message():
    pair, doc = _rigid_document()
    with pytest.raises(ValueError) as exc:
        formats.verify_certificate_document(_flagged(doc, -(10**5000)), pair)
    message = "kruskal_budget flag must be a nonnegative integer, got -<5001-digit int>"
    assert str(exc.value) == message and len(message) < 100


@pytest.mark.parametrize(
    "token",
    [_LONG, "1/" + "0" * 4000, "1/" + "0" * 4000 + "x"],
    ids=["junk", "zero-denominator", "junk-after-zeros"],
)
def test_parse_rational_quotes_long_tokens_briefly(token):
    with pytest.raises(formats.ParseError) as exc:
        formats.parse_rational(token)
    assert str(exc.value).endswith("...") and len(str(exc.value)) < 100
