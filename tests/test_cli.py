import hashlib
import json
import time

import pytest

from spanrep.cache import cache_get, cache_key, cache_put, write_atomic
from spanrep.cli import main
from spanrep.formula import FORMULA_MAX_N, grfrob_tableaux
from spanrep.oracle import COMMUTING_MAX_N
from spanrep.serialize import SCHEMA_VERSION, degree_table_to_json, envelope_bytes, make_envelope


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_out(out):
    return json.loads(out)


# -- frobenius -----------------------------------------------------------


def test_frobenius_both_sources_agree(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "3", "2", "--source", "both")
    assert code == 0
    env = json_out(out)
    assert env["schema_version"] == 1
    payload = env["payload"]
    assert payload["diff"] == []
    assert payload["sources"]["formula"] == payload["sources"]["oracle"]
    degrees = {row["degree"] for row in payload["sources"]["formula"]}
    assert degrees == {0, 1, 2}


@pytest.mark.parametrize(
    "argv",
    [
        ["frobenius", "6", "3", "--source", "both"],
        ["stability", "1", "3", "--fixed-k", "2", "--n-max", "10"],
        ["explore", "--problem", "rw-twist", "--n", "3"],
    ],
)
def test_formula_side_builds_no_tableau(capsys, monkeypatch, tmp_path, argv):
    import spanrep.combinat as combinat_mod

    def no_tableau(*args, **kwargs):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(combinat_mod, "StandardTableau", no_tableau)
    monkeypatch.chdir(tmp_path)  # explore's default fixtures directory is relative
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


def test_frobenius_point_case(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "4", "1")
    assert code == 0
    rows = json_out(out)["payload"]["sources"]["formula"]
    assert rows == [{"degree": 0, "shape": [4], "coeff": [[[0, 0, 0], "1"]]}]


def test_frobenius_max_degree_cuts_every_source(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "3", "2", "--max-degree", "1", "--source", "formula")
    assert code == 0
    rows = json_out(out)["payload"]["sources"]["formula"]
    assert {row["degree"] for row in rows} == {0, 1}
    code, out, _ = run_cli(capsys, "frobenius", "3", "2", "--max-degree", "1", "--source", "both")
    assert code == 0
    payload = json_out(out)["payload"]
    assert payload["diff"] == []
    assert payload["sources"]["formula"] == payload["sources"]["oracle"] == rows


def test_frobenius_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobenius", "2", "3")
    assert code == 2
    assert "1 <= k <= n" in err


def test_frobenius_csv_matches_json(capsys):
    code, json_text, _ = run_cli(capsys, "frobenius", "3", "3")
    code2, csv_text, _ = run_cli(capsys, "frobenius", "3", "3", "--format", "csv")
    assert code == code2 == 0
    rows = json_out(json_text)["payload"]["sources"]["formula"]
    lines = [line for line in csv_text.strip().splitlines()][1:]
    assert len(lines) == len(rows)


def test_frobenius_oracle_guard(capsys):
    code, _, err = run_cli(capsys, "frobenius", "8", "2", "--source", "oracle")
    assert code == 4
    assert "scale guard" in err


@pytest.mark.parametrize(
    "source, limit",
    [
        ("formula", f"formula table limited to n <= {FORMULA_MAX_N}"),
        # the oracle side is asked first, so its guard refuses
        ("both", f"commuting oracle limited to n <= {COMMUTING_MAX_N}"),
    ],
    ids=["formula", "both"],
)
def test_frobenius_formula_guard(capsys, source, limit):
    n = FORMULA_MAX_N + 1
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "frobenius", str(n), "1", "--source", source)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == f"scale guard: {limit}, got n={n}\n"


@pytest.mark.parametrize("n, k", [(8, 4), (14, 7), (20, 10)])
def test_frobenius_both_is_refused_before_the_formula_table(capsys, n, k):
    # the formula admits these, but the oracle refuses them before either
    # table is built (the formula alone takes seconds at (20, 10))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "frobenius", str(n), str(k), "--source", "both")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == f"scale guard: commuting oracle limited to n <= {COMMUTING_MAX_N}, got n={n}\n"


def test_frobenius_oracle_guard_by_piece_size(capsys):
    # n = 7 passes the n guard, but A_21 of Q[x]/<x_i^7> has 60,691
    # monomials; the refusal is predicted by counting, before any work
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "frobenius", "7", "7", "--source", "oracle")
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert "scale guard" in err and "60691" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "1,2", "3", "--fixed-k", "2", "--n-max", "10"],
        ["stability", "1", "3", "--fixed-k", "2", "--n-max", "0"],
        ["stability", "-", "1", "--fixed-k", "0", "--n-max", "10"],
        ["stability", "-", "1", "--fixed-codim", "-1", "--n-max", "10"],
        ["stability", "-", "-1", "--fixed-k", "2", "--n-max", "3"],
        ["explore", "--problem", "grassmann", "--d", "2", "--n", "1", "--k", "5"],
        ["explore", "--problem", "zabrocki-t0", "--n", "-1"],
        ["explore", "--problem", "rw-twist", "--n", "0"],
        ["explore", "--problem", "rw-twist", "--n", "-3"],
        ["superspace", "3", "3", "--check-identity"],
        ["superspace", "2", "3", "--closure"],
        ["frobenius", "3", "2", "--max-degree", "-1", "--source", "formula"],
        ["frobenius", "3", "2", "--max-degree", "-1", "--source", "oracle"],
        ["frobenius", "3", "2", "--max-degree", "-1", "--source", "both"],
        ["frobenius", "9", "10", "--source", "oracle"],
    ],
)
def test_invalid_arguments_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # explore's default fixtures directory is relative
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "fixtures").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["frobenius", "3", "2", "--cache-dir", "{file}/c"],
        ["explore", "--problem", "zabrocki-t0", "--n", "2", "--fixtures-dir", "{file}/f"],
    ],
)
def test_unwritable_directory_is_usage_error(capsys, tmp_path, argv):
    # a directory under a regular file cannot be made
    file = tmp_path / "file"
    file.write_text("")
    code, out, err = run_cli(capsys, *(arg.format(file=file) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_reused_parser_answers_as_a_fresh_one(capsys):
    # main builds the argparse tree once per process; every later request
    # must get the exit code and output that a newly built parser gives
    import spanrep.cli as cli_mod

    requests = [
        ["frobenius", "3"],  # usage error from argparse
        ["--version"],
        ["frobenius", "3", "2"],
        ["superspace", "2", "2", "--closure"],
    ]

    def answer(argv):
        code, out, err = run_cli(capsys, *argv)
        if out.startswith("{"):
            envelope = json_out(out)
            del envelope["provenance"]["timestamp"]
            out = envelope
        return code, out, err

    fresh = []
    for argv in requests:
        cli_mod.build_parser.cache_clear()
        fresh.append(answer(argv))
    parser = cli_mod.build_parser()
    assert [answer(argv) for argv in requests] == fresh
    assert cli_mod.build_parser() is parser
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0]


# -- caching -------------------------------------------------------------


def test_cache_put_get_round_trip(tmp_path):
    env = make_envelope("frobenius", {"n": 3, "k": 2}, {"kind": "t", "rows": []}, "oracle", "0.1.0")
    key = cache_key("frobenius", {"n": 3, "k": 2})
    cache_put(tmp_path, key, env)
    status, got = cache_get(tmp_path, key)
    assert status == "hit"
    assert got == env


def test_cache_miss_and_corrupt(tmp_path):
    key = cache_key("frobenius", {"n": 1})
    assert cache_get(tmp_path, key) == ("miss", None)
    path = tmp_path / f"{key}.json"
    path.write_text("{not json")
    assert cache_get(tmp_path, key) == ("corrupt", None)


def test_cache_entry_that_is_not_an_object_is_corrupt(tmp_path):
    key = cache_key("frobenius", {"n": 1})
    (tmp_path / f"{key}.json").write_text("5")
    assert cache_get(tmp_path, key) == ("corrupt", None)


def test_failed_write_leaves_the_old_entry_and_no_temp_file(tmp_path, monkeypatch):
    import spanrep.cache as cache_mod

    path = tmp_path / "entry.json"
    write_atomic(path, b"old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_atomic(path, b"new\n")
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.glob(".tmp-*")) == []


@pytest.mark.parametrize(
    "field", ["schema_version", "command", "parameters", "payload", "provenance"]
)
def test_cache_entry_missing_an_envelope_field_is_corrupt(tmp_path, field):
    params = {"n": 2, "k": 2, "source": "formula", "max_degree": None}
    key = cache_key("frobenius", params)
    env = make_envelope("frobenius", params, {}, "formula", "0.1.0")
    del env[field]
    (tmp_path / f"{key}.json").write_bytes(envelope_bytes(env))
    assert cache_get(tmp_path, key) == ("corrupt", None)


def test_frobenius_cold_cache_then_hit(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "frobenius", "3", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
    code, out2, _ = run_cli(capsys, "frobenius", "3", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    # cached hit returns the identical envelope, timestamp included
    assert out1 == out2


def test_verify_cache_detects_tampering(capsys, tmp_path):
    run_cli(capsys, "frobenius", "2", "2", "--cache-dir", str(tmp_path))
    entry = next(tmp_path.glob("*.json"))
    env = json.loads(entry.read_bytes())
    env["payload"]["sources"]["formula"] = []
    entry.write_bytes(envelope_bytes(env))
    code, out, err = run_cli(
        capsys, "frobenius", "2", "2", "--cache-dir", str(tmp_path), "--verify-cache"
    )
    assert code == 0
    assert "does not match" in err
    assert json_out(out)["payload"]["sources"]["formula"] != []


def test_cache_entry_for_other_parameters_is_corrupt(capsys, tmp_path):
    run_cli(capsys, "frobenius", "4", "2", "--cache-dir", str(tmp_path))
    entry = next(tmp_path.glob("*.json"))
    params = {"n": 3, "k": 2, "source": "formula", "max_degree": None}
    entry.rename(tmp_path / f"{cache_key('frobenius', params)}.json")
    code, out, err = run_cli(capsys, "frobenius", "3", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "corrupt" in err
    assert json_out(out)["payload"]["n"] == 3


def test_cache_entry_from_before_the_formula_cut_is_not_served(capsys, tmp_path):
    # Entries keyed without a payload revision were written when --max-degree
    # left the formula rows uncut; they must miss, not be served.
    params = {"n": 3, "k": 2, "source": "formula", "max_degree": 1}
    old_key = hashlib.sha256(
        json.dumps(
            {"command": "frobenius", "parameters": params, "schema_version": SCHEMA_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    ).hexdigest()
    uncut = degree_table_to_json(grfrob_tableaux(3, 2).by_degree)
    payload = {"kind": "frobenius_table", "n": 3, "k": 2, "max_degree": 1,
               "sources": {"formula": uncut}, "diff": []}
    cache_put(tmp_path, old_key, make_envelope("frobenius", params, payload, "formula", "0.1.0"))
    code, out, _ = run_cli(
        capsys, "frobenius", "3", "2", "--max-degree", "1", "--source", "formula",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert {row["degree"] for row in json_out(out)["payload"]["sources"]["formula"]} == {0, 1}


def _append_row(payload, degree, coeff):
    # the same row in every table, so the diff between them stays empty
    for rows in payload["sources"].values():
        rows.append({"degree": degree, "shape": [2, 1], "coeff": [[[0, 0, 0], coeff]]})


def _edit_tables(payload, edit):
    # the same edit in every table, so the diff between them stays empty
    for rows in payload["sources"].values():
        edit(rows)


@pytest.mark.parametrize(
    "flags, corrupt",
    [
        pytest.param((), lambda p: p.pop("diff"), id="no-diff"),
        pytest.param(
            ("--format", "csv"),
            lambda p: p["sources"]["formula"][0].update(coeff=[[[0, 0], "1"]]),
            id="two-exponent-coeff",
        ),
        pytest.param((), lambda p: p["sources"]["formula"][0].update(coeff=5), id="scalar-coeff"),
        pytest.param(
            (), lambda p: p["sources"]["formula"][0].update(shape=[5]), id="shape-of-other-n"
        ),
        pytest.param(
            ("--source", "both"), lambda p: p["sources"].pop("oracle"), id="both-without-oracle"
        ),
        pytest.param((), lambda p: p.update(diff=[{"bogus": 1}]), id="bogus-diff"),
        pytest.param(
            ("--format", "csv"),
            lambda p: p["sources"]["formula"][0].update(coeff=[[[0, 0, 0], 1.5]]),
            id="float-coeff",
        ),
        pytest.param((), lambda p: p.update(n=99), id="other-n"),
        pytest.param((), lambda p: p.update(k=7), id="other-k"),
        pytest.param((), lambda p: p.update(kind="bogus"), id="other-kind"),
        pytest.param((), lambda p: p.update(max_degree=1), id="other-max-degree"),
        pytest.param(
            ("--source", "both"),
            lambda p: (p.update(n=99, k=7, kind="bogus"), _append_row(p, -5, "-4")),
            id="tampered-header-and-rows",
        ),
        pytest.param(("--source", "both"), lambda p: _append_row(p, -5, "1"), id="negative-degree"),
        pytest.param(
            ("--max-degree", "1", "--format", "csv"),
            lambda p: _append_row(p, 2, "1"),
            id="degree-above-max-degree",
        ),
        pytest.param((), lambda p: _append_row(p, 1, "-4"), id="negative-coeff"),
        pytest.param((), lambda p: _append_row(p, 1, "0"), id="zero-coeff"),
        pytest.param(
            ("--source", "both"),
            lambda p: _edit_tables(p, lambda rows: rows[0].update(coeff=[[[0, 0, 0], "-1"]])),
            id="negative-coeff-in-order",
        ),
        pytest.param(
            (),
            lambda p: p["sources"]["formula"][0].update(coeff=[[[1, 0, 0], "1"]]),
            id="non-constant-coeff",
        ),
        pytest.param(
            ("--source", "both", "--format", "csv"),
            lambda p: _edit_tables(p, lambda rows: rows.append(rows[0])),
            id="repeated-row",
        ),
        pytest.param(
            ("--source", "both", "--format", "csv"),
            lambda p: _edit_tables(p, list.reverse),
            id="reversed-rows",
        ),
    ],
)
def test_cache_entry_without_printed_fields_is_corrupt(capsys, tmp_path, flags, corrupt):
    argv = ("frobenius", "3", "2", *flags, "--cache-dir", str(tmp_path))
    _, fresh, _ = run_cli(capsys, *argv)
    entry = next(tmp_path.glob("*.json"))
    env = json.loads(entry.read_bytes())
    corrupt(env["payload"])
    entry.write_bytes(envelope_bytes(env))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == "warning: corrupt cache entry, recomputing\n"
    if "csv" in flags:
        assert out == fresh
    else:
        assert json_out(out)["payload"] == json_out(fresh)["payload"]


def _edit_rows(edit):
    # the same edit to every row of every table, so the diff stays empty
    return lambda p: _edit_tables(p, lambda rows: [edit(row) for row in rows])


def _shape_part_as_float(row):
    if row["shape"] == [2, 1]:
        row["shape"] = [2.0, 1]


def _repeated_shape_as_string(row):
    # the second [2, 1] row of a table; str("[2, 1]") == str([2, 1])
    if row["degree"] == 2 and row["shape"] == [2, 1]:
        row["shape"] = "[2, 1]"


def _degree_one_as(value):
    def edit(row):
        if row["degree"] == 1:
            row["degree"] = value

    return edit


def _exponent_as_float(row):
    ((exps, coeff),) = row["coeff"]
    row["coeff"] = [[[0.0, *exps[1:]], coeff]]


def _leading_zero(row):
    ((exps, coeff),) = row["coeff"]
    row["coeff"] = [[exps, "0" + coeff]]


@pytest.mark.parametrize("flags", [(), ("--verify-cache",)], ids=["read", "verify"])
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_edit_rows(_leading_zero), id="coeff-01"),
        pytest.param(_edit_rows(_shape_part_as_float), id="shape-part-2.0"),
        pytest.param(_edit_rows(_repeated_shape_as_string), id="shape-string"),
        pytest.param(_edit_rows(_degree_one_as(True)), id="degree-true"),
        pytest.param(_edit_rows(_degree_one_as(1.0)), id="degree-1.0"),
        pytest.param(_edit_rows(_exponent_as_float), id="exponent-0.0"),
        pytest.param(lambda p: p.update(n=3.0), id="payload-n-3.0"),
        pytest.param(lambda p: p.update(k=2.0), id="payload-k-2.0"),
    ],
)
def test_cache_entry_with_json_the_encoders_never_write_is_corrupt(
    capsys, tmp_path, edit, flags
):
    # each edit reads back equal under ==, as 2.0 == 2 and True == 1, or as
    # int("01") == 1; it must still be reported, recomputed and rewritten
    argv = ("frobenius", "3", "2", "--source", "both", "--cache-dir", str(tmp_path))
    _, cold, _ = run_cli(capsys, *argv)
    entry = next(tmp_path.glob("*.json"))
    env = json.loads(entry.read_bytes())
    edit(env["payload"])
    tampered = envelope_bytes(env)
    assert tampered != entry.read_bytes()
    entry.write_bytes(tampered)
    code, out, err = run_cli(capsys, *argv, *flags)
    assert (code, err) == (0, "warning: corrupt cache entry, recomputing\n")
    assert json_out(out)["payload"] == json_out(cold)["payload"]
    assert entry.read_bytes() != tampered
    assert json.loads(entry.read_bytes())["payload"] == json_out(cold)["payload"]


@pytest.mark.parametrize("flags", [(), ("--verify-cache",)], ids=["read", "verify"])
@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
def test_cache_entry_with_a_schema_version_that_is_not_an_integer_is_corrupt(
    capsys, tmp_path, version, flags
):
    # true == 1 and 1.0 == 1, but the encoders write the integer 1
    argv = ("frobenius", "3", "2", "--source", "both", "--cache-dir", str(tmp_path))
    _, cold, _ = run_cli(capsys, *argv)
    entry = next(tmp_path.glob("*.json"))
    env = json.loads(entry.read_bytes())
    env["schema_version"] = version
    tampered = envelope_bytes(env)
    entry.write_bytes(tampered)
    code, out, err = run_cli(capsys, *argv, *flags)
    assert (code, err) == (0, "warning: corrupt cache entry, recomputing\n")
    assert json_out(out)["payload"] == json_out(cold)["payload"]
    assert entry.read_bytes() != tampered
    for printed in (out, entry.read_bytes()):
        version = json.loads(printed)["schema_version"]
        assert (type(version), version) == (int, SCHEMA_VERSION)


# every (n, k) the crosscheck benchmark workload asks for with --source both
CROSSCHECK_PAIRS = [
    (n, k) for n in range(1, 7) for k in range(1, n + 1) if (n, k) not in ((6, 5), (6, 6))
] + [(7, 1), (7, 2)]


@pytest.mark.parametrize(
    "argv",
    [
        *((str(n), str(k), "--source", "both") for n, k in CROSSCHECK_PAIRS),
        *(("6", "3", "--source", "formula", "--max-degree", str(d)) for d in range(10)),
    ],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_good_cache_entry_is_served(capsys, tmp_path, argv):
    # a check that refused good entries would show only as recomputation
    argv = ("frobenius", *argv, "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv) == (0, cold, "")


def test_verify_cache_accepts_good_entry(capsys, tmp_path):
    run_cli(capsys, "frobenius", "2", "2", "--cache-dir", str(tmp_path))
    code, _, err = run_cli(
        capsys, "frobenius", "2", "2", "--cache-dir", str(tmp_path), "--verify-cache"
    )
    assert code == 0
    assert "does not match" not in err


def _bump_first_coeff(payload):
    # the same coefficient in both tables, so the entry stays printable
    for rows in payload["sources"].values():
        ((exps, coeff),) = rows[0]["coeff"]
        rows[0]["coeff"] = [[exps, str(int(coeff) + 1)]]


def test_cache_entry_walks_through_every_state(capsys, tmp_path):
    argv = ("frobenius", "3", "2", "--source", "both", "--cache-dir", str(tmp_path))
    mismatch = "warning: cache entry does not match recomputation\n"
    corrupt = "warning: corrupt cache entry, recomputing\n"

    def tamper(edit):
        entry = next(tmp_path.glob("*.json"))
        env = json.loads(entry.read_bytes())
        edit(env["payload"])
        entry.write_bytes(envelope_bytes(env))

    # (edit before the run, extra flags, stderr, whether the entry is rewritten)
    steps = [
        (None, (), "", True),
        (None, (), "", False),
        (None, ("--verify-cache",), "", False),
        (_bump_first_coeff, ("--verify-cache",), mismatch, True),
        (lambda p: p.update(n=99), (), corrupt, True),
    ]
    outs = []
    for edit, flags, want_err, rewritten in steps:
        if edit is not None:
            tamper(edit)
        entries = list(tmp_path.glob("*.json"))
        before = entries[0].read_bytes() if entries else None
        code, out, err = run_cli(capsys, *argv, *flags)
        after = next(tmp_path.glob("*.json")).read_bytes()
        assert (code, err) == (0, want_err)
        outs.append(out)
        cold = json_out(outs[0])["payload"]
        assert json_out(out)["payload"] == cold
        assert (after != before) is rewritten
        assert json.loads(after)["payload"] == cold
    # hits, verified or not, print the stored envelope, timestamp included
    assert outs[1] == outs[2] == outs[0]
    assert len(list(tmp_path.glob("*.json"))) == 1


# -- stability ------------------------------------------------------------


def test_stability_pass(capsys):
    code, out, _ = run_cli(capsys, "stability", "-", "1", "--fixed-k", "2", "--n-max", "10")
    assert code == 0
    payload = json_out(out)["payload"]
    assert payload["verdict"] == "stable-within-bound"
    assert payload["n_obs"] == 3
    assert payload["n_bound"] == 4


def test_stability_zero_stable_value(capsys):
    code, out, _ = run_cli(capsys, "stability", "1", "0", "--fixed-codim", "0", "--n-max", "8")
    assert code == 0
    payload = json_out(out)["payload"]
    assert payload["stable_value"] == 0  # |mu| > s kills every degree-0 multiplicity


def test_stability_missing_mode_flag(capsys):
    code, _, _ = run_cli(capsys, "stability", "-", "1", "--n-max", "8")
    assert code == 2


def test_stability_inconclusive(capsys):
    code, _, err = run_cli(capsys, "stability", "-", "1", "--fixed-k", "2", "--n-max", "5")
    assert code == 3
    assert "inconclusive" in err


def test_stability_fail_exits_one(capsys, monkeypatch):
    import spanrep.stability as stability_mod

    true_value = stability_mod.stable_multiplicity
    monkeypatch.setattr(
        stability_mod, "stable_multiplicity", lambda *args: true_value(*args) + 1
    )
    code, out, _ = run_cli(capsys, "stability", "-", "1", "--fixed-k", "2", "--n-max", "10")
    assert code == 1
    payload = json_out(out)["payload"]
    assert payload["verdict"] == "fail"
    assert payload["detail"] == "stable value 1 != closed-form value 2"


def test_stability_partition_argument(capsys):
    code, out, _ = run_cli(capsys, "stability", "2,1", "3", "--fixed-k", "3", "--n-max", "12")
    assert code == 0
    assert json_out(out)["payload"]["mu"] == [2, 1]


# -- superspace -----------------------------------------------------------


def test_superspace_check_identity(capsys):
    code, out, _ = run_cli(capsys, "superspace", "3", "2", "--check-identity")
    assert code == 0
    assert json_out(out)["payload"]["equal"] is True


def test_superspace_closure_table(capsys):
    code, out, _ = run_cli(capsys, "superspace", "2", "2", "--closure")
    assert code == 0
    entries = json_out(out)["payload"]["entries"]
    assert entries == [
        {"x_degree": 0, "theta_degree": 0, "dim": 1},
        {"x_degree": 1, "theta_degree": 0, "dim": 1},
    ]


def test_superspace_frobenius_table(capsys):
    code, out, _ = run_cli(capsys, "superspace", "2", "1", "--frobenius")
    assert code == 0
    entries = json_out(out)["payload"]["entries"]
    by_md = {(e["x_degree"], e["theta_degree"]): e["expansion"] for e in entries}
    assert by_md[(0, 1)]["terms"] == [{"shape": [1, 1], "coeff": [[[0, 0, 0], "1"]]}]


def test_superspace_scale_guard(capsys):
    code, _, err = run_cli(capsys, "superspace", "9", "3", "--closure")
    assert code == 4
    assert "scale guard" in err


def test_superspace_identity_usage(capsys):
    assert run_cli(capsys, "superspace", "2", "2", "--check-identity")[0] == 2


# -- explore ---------------------------------------------------------------


def test_explore_rw_twist(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "explore", "--problem", "rw-twist", "--n", "3",
        "--fixtures-dir", str(tmp_path),
    )
    assert code == 0
    payload = json_out(out)["payload"]
    assert len(payload["per_k"]) == 3
    for entry in payload["per_k"]:
        assert "omega+q-reverse" in entry["matching_transforms"]
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_explore_zabrocki_t0(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "explore", "--problem", "zabrocki-t0", "--n", "2",
        "--fixtures-dir", str(tmp_path),
    )
    assert code == 0
    payload = json_out(out)["payload"]
    quotient_mds = {
        (e["x_degree"], e["theta_degree"]) for e in payload["quotient_table"]
    }
    assert quotient_mds == {(0, 0), (1, 0), (0, 1)}
    assert {e["theta_degree"] for e in payload["closure_slices"]} == {0, 1}


def test_explore_fixture_is_written_whole(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "explore", "--problem", "zabrocki-t0", "--n", "2",
        "--fixtures-dir", str(tmp_path),
    )
    assert code == 0
    (fixture,) = tmp_path.iterdir()  # the only file: no temp file left behind
    assert fixture.read_bytes() == envelope_bytes(json_out(out))


def test_explore_grassmann(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "explore", "--problem", "grassmann", "--d", "2", "--n", "2", "--k", "3",
        "--fixtures-dir", str(tmp_path),
    )
    assert code == 0
    payload = json_out(out)["payload"]
    assert payload["dims"] == {"0": 1, "1": 2, "2": 2, "3": 1}


# -- comparison-failure exits -------------------------------------------------


def test_frobenius_mismatch_exits_one(capsys, monkeypatch, tmp_path):
    # force the formula side wrong to exercise the diff contract
    import spanrep.cli as cli_mod
    from spanrep.combinat import GradedPoly, Partition
    from spanrep.formula import GradedFrobenius
    from spanrep.symfun import SchurExpansion

    def wrong_formula(n, k):
        return GradedFrobenius(
            n, k, {0: SchurExpansion(n, {Partition((n,)): GradedPoly.const(2)})}
        )

    monkeypatch.setattr(cli_mod, "grfrob_tableaux", wrong_formula)
    argv = ("frobenius", "2", "2", "--source", "both", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    diff = json_out(out)["payload"]["diff"]
    assert diff, "diff section must name the disagreeing entries"
    assert {"degree", "shape", "formula", "oracle"} <= set(diff[0])
    # the stored entry, diff and all, is printable: a hit prints it as stored
    assert run_cli(capsys, *argv) == (1, out, "error: formula/oracle tables disagree\n")


def test_identity_failure_exits_one(capsys, monkeypatch):
    import spanrep.cli as cli_mod
    from spanrep.superspace import IdentityCheck, SuperPoly

    def unequal(n, k):
        zero = SuperPoly.zero(n + 1, 1, 1)
        return IdentityCheck(False, zero, zero)

    monkeypatch.setattr(cli_mod, "vandermonde_derivative_identity", unequal)
    code, out, _ = run_cli(capsys, "superspace", "3", "1", "--check-identity")
    assert code == 1
    assert json_out(out)["payload"]["equal"] is False


def test_cache_dir_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPANREP_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "frobenius", "2", "2")
    assert code == 0
    assert len(list(tmp_path.glob("*.json"))) == 1
