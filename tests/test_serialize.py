import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spanrep.combinat import GradedPoly, partitions_of
from spanrep.serialize import (
    degree_table_from_json,
    degree_table_to_json,
    envelope_bytes,
    envelope_from_bytes,
    expansion_from_json,
    expansion_to_json,
    make_envelope,
    partition_from_json,
    payloads_equal,
    poly_from_json,
    poly_to_json,
    schur_table_to_csv,
    superpoly_from_json,
    superpoly_to_json,
)
from spanrep.superspace import superspace_vandermonde
from spanrep.symfun import SchurExpansion

poly_strategy = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 4)),
    st.integers(-(10**20), 10**20),  # coefficients beyond native word size
    max_size=6,
).map(GradedPoly)


@given(poly_strategy)
def test_poly_round_trip(poly):
    assert poly_from_json(poly_to_json(poly)) == poly


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.data())
def test_expansion_round_trip(n, data):
    coeffs = {}
    for lam in partitions_of(n):
        poly = data.draw(poly_strategy, label=f"coeff{lam.parts}")
        if poly:
            coeffs[lam] = poly
    exp = SchurExpansion(n, coeffs)
    assert expansion_from_json(expansion_to_json(exp)) == exp


def test_degree_table_round_trip():
    from spanrep.formula import grfrob_tableaux

    table = grfrob_tableaux(4, 2).by_degree
    rows = degree_table_to_json(table)
    assert degree_table_from_json(rows, 4) == table
    # rows come out sorted by degree
    assert [r["degree"] for r in rows] == sorted(r["degree"] for r in rows)


def test_superpoly_round_trip():
    poly = superspace_vandermonde(3, 2) * Fraction(2, 3)
    assert superpoly_from_json(superpoly_to_json(poly)) == poly


@pytest.mark.parametrize("coeff", [0.1, 1.5, 3, True, None])
def test_superpoly_coefficients_that_are_not_strings_are_rejected(coeff):
    # a JSON number would become a binary-float Fraction such as
    # 3602879701896397/36028797018963968 for 0.1
    data = {"n": 1, "m": 1, "p": 1, "terms": [[[[1]], [[]], coeff]]}
    with pytest.raises(ValueError, match="decimal string"):
        superpoly_from_json(data)


def test_envelope_round_trip_bytes():
    env = make_envelope("frobenius", {"n": 3, "k": 2}, {"kind": "x", "rows": [1, 2]}, "formula", "0.1.0")
    raw = envelope_bytes(env)
    assert envelope_from_bytes(raw) == env
    # byte-determinism: serializing the parsed envelope reproduces the bytes
    assert envelope_bytes(envelope_from_bytes(raw)) == raw


def test_envelope_rejects_bad_schema():
    env = make_envelope("x", {}, {}, "formula", "0.1.0")
    env["schema_version"] = 99
    try:
        envelope_from_bytes(envelope_bytes(env))
    except ValueError:
        pass
    else:
        raise AssertionError("expected a schema version error")


def test_payloads_equal_ignores_timestamp():
    a = make_envelope("cmd", {"n": 1}, {"v": 1}, "formula", "0.1.0")
    b = make_envelope("cmd", {"n": 1}, {"v": 1}, "formula", "0.1.0")
    b["provenance"]["timestamp"] = "1970-01-01T00:00:00+00:00"
    assert payloads_equal(a, b)
    b["payload"] = {"v": 2}
    assert not payloads_equal(a, b)


def test_csv_agrees_with_json_numerically():
    from spanrep.formula import grfrob_tableaux

    rows = degree_table_to_json(grfrob_tableaux(4, 3).by_degree)
    text = schur_table_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    for json_row, csv_row in zip(rows, parsed):
        assert int(csv_row["degree"]) == json_row["degree"]
        shape = tuple(int(x) for x in csv_row["shape"].split(",")) if csv_row["shape"] else ()
        assert shape == tuple(json_row["shape"])
        assert csv_row["coeff"] == poly_from_json(json_row["coeff"]).as_str()


def test_coefficients_survive_as_strings():
    big = 10**40
    rows = [[[0, 0, 0], str(big)]]
    data = json.loads(json.dumps(rows))
    assert poly_from_json(data).coefficient() == big


@pytest.mark.parametrize("coeff", [1.5, 3, True, None])
def test_coefficients_that_are_not_strings_are_rejected(coeff):
    with pytest.raises(ValueError, match="decimal string"):
        poly_from_json([[[0, 0, 0], coeff]])


@pytest.mark.parametrize(
    "decode, data",
    [
        (poly_from_json, [[[0, 0, 0], "01"]]),
        (poly_from_json, [[[0, 0, 0], " 1"]]),
        (poly_from_json, [[[0, 0, 0], "-0"]]),
        (poly_from_json, [[[0.0, 0, 0], "1"]]),
        (poly_from_json, [[[False, 0, 0], "1"]]),
        (partition_from_json, [2.0, 1]),
        (partition_from_json, [True]),
        (partition_from_json, "21"),
        (superpoly_from_json, {"n": 1, "m": 1, "p": 1, "terms": [[[[1]], [[]], "1.5"]]}),
        (superpoly_from_json, {"n": 1, "m": 1, "p": 1, "terms": [[[[1]], [[]], "2/4"]]}),
        (superpoly_from_json, {"n": 1.0, "m": 1, "p": 1, "terms": [[[[1]], [[]], "1"]]}),
        (superpoly_from_json, {"n": 1, "m": 1, "p": 1, "terms": [[[[True]], [[]], "1"]]}),
        (
            lambda rows: degree_table_from_json(rows, 1),
            [{"degree": -1, "shape": [1], "coeff": [[[0, 0, 0], "1"]]}],
        ),
    ],
)
def test_decoders_accept_only_what_the_encoders_write(decode, data):
    # each of these reads back equal under == or int() to what an encoder writes
    with pytest.raises(ValueError):
        decode(data)
