"""Command-line front end: tables, stability reports, superspace checks,
and the exploratory comparisons for the open problems.

Exit codes: 0 ok, 1 comparison failure, 2 usage error, 3 inconclusive,
4 scale guard.  Experiments (`explore`) report findings and always exit 0
unless a scale guard trips; they never gate anything.

Each command has one path: a usage error, whether a command or the library
finds it, is a raised ValueError that `main` alone prints as one `error:`
line; `frobenius` computes and stores its table at one site, reached by a
cache miss, a corrupt entry and `--verify-cache` alike, and encodes its
payload through one function, which also rebuilds a cached entry from its
own tables to decide whether it may be served; `superspace` builds one
payload per mode and shares a single envelope and exit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .cache import ENV_CACHE_DIR, cache_get, cache_key, cache_put, write_atomic
from .combinat import Partition
from .errors import ScaleGuardError
from .formula import FixedCodim, FixedK, grfrob_tableaux
from .oracle import decompose_coinvariants, grassmann_quotient, super_coinvariant_table
from .serialize import (
    degree_table_from_json,
    degree_table_to_json,
    envelope_bytes,
    expansion_to_json,
    make_envelope,
    payloads_equal,
    poly_to_json,
    schur_table_to_csv,
    superpoly_to_json,
)
from .stability import (
    VERDICT_FAIL,
    VERDICT_PASS,
    detect_onset,
    multiplicity_sequence,
)
from .superspace import (
    frobenius_of_closure,
    harmonic_closure,
    vandermonde_derivative_identity,
)
from .symfun import SchurExpansion, omega, q_graded, q_reverse

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_GUARD = 4


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "-", "0"):
        return Partition()
    return Partition(tuple(int(x) for x in text.split(",")))


def _emit_json(envelope: dict) -> None:
    print(json.dumps(envelope, sort_keys=True, indent=2))


# -- frobenius ----------------------------------------------------------


def _table_diff(sources: dict) -> list[dict]:
    """The (degree, shape) entries whose coefficients differ between the
    formula and oracle tables, sorted; empty unless both are present."""
    if set(sources) != {"formula", "oracle"}:
        return []
    f_entries = {(r["degree"], tuple(r["shape"])): r["coeff"] for r in sources["formula"]}
    o_entries = {(r["degree"], tuple(r["shape"])): r["coeff"] for r in sources["oracle"]}
    return [
        {"degree": key[0], "shape": list(key[1]), "formula": fc, "oracle": oc}
        for key in sorted(set(f_entries) | set(o_entries))
        if (fc := f_entries.get(key)) != (oc := o_entries.get(key))
    ]


def _frobenius_payload(n: int, k: int, max_degree: int | None, tables: dict) -> dict:
    """The one encoding of a frobenius payload: each named {degree:
    expansion} table cut at max_degree, its rows, and the diff they give."""
    sources = {
        name: degree_table_to_json(
            {d: exp for d, exp in table.items() if max_degree is None or d <= max_degree}
        )
        for name, table in tables.items()
    }
    return {
        "kind": "frobenius_table",
        "n": n,
        "k": k,
        "max_degree": max_degree,
        "sources": sources,
        "diff": _table_diff(sources),
    }


def _printable_frobenius(payload, params: dict) -> bool:
    """Whether a cached payload is one the request params prints: its
    coefficients are positive constants, and the payload this version
    writes from its own decoded tables, for exactly the sources params
    names, is the stored one, compared as JSON text (where 2.0 and true
    differ from 2 and 1)."""
    n = params["n"]
    names = ("formula", "oracle") if params["source"] == "both" else (params["source"],)
    try:  # a missing field or a value of the wrong JSON type fails with KeyError or TypeError
        tables = {name: degree_table_from_json(payload["sources"][name], n) for name in names}
        rebuilt = _frobenius_payload(n, params["k"], params["max_degree"], tables)
        return all(
            poly.is_constant() and poly.coefficient() > 0
            for table in tables.values()
            for exp in table.values()
            for _, poly in exp.items()
        ) and json.dumps(rebuilt, sort_keys=True) == json.dumps(payload, sort_keys=True)
    except (KeyError, TypeError, ValueError):
        return False


def cmd_frobenius(args) -> int:
    n, k = args.n, args.k
    if args.max_degree is not None and args.max_degree < 0:
        raise ValueError(f"need --max-degree >= 0, got {args.max_degree}")
    params = {"n": n, "k": k, "source": args.source, "max_degree": args.max_degree}
    cache_dir = args.cache_dir or os.environ.get(ENV_CACHE_DIR)
    key = cache_key("frobenius", params)
    envelope = None
    if cache_dir is not None:
        status, envelope = cache_get(cache_dir, key)
        if status == "hit" and not _printable_frobenius(envelope["payload"], params):
            status, envelope = "corrupt", None
        if status == "corrupt":
            print("warning: corrupt cache entry, recomputing", file=sys.stderr)
    # a miss, a corrupt entry and --verify-cache all compute here; a verified
    # hit equal to its recomputation is still printed as read
    if envelope is None or args.verify_cache:
        # the oracle side first: a request it refuses builds no formula table
        tables = {}
        if args.source in ("oracle", "both"):
            tables["oracle"] = decompose_coinvariants(n, k, max_degree=args.max_degree).by_degree
        if args.source in ("formula", "both"):
            tables["formula"] = grfrob_tableaux(n, k).by_degree
        payload = _frobenius_payload(n, k, args.max_degree, tables)
        fresh = make_envelope("frobenius", params, payload, args.source, __version__)
        if envelope is None or not payloads_equal(envelope, fresh):
            if envelope is not None:
                print("warning: cache entry does not match recomputation", file=sys.stderr)
            envelope = fresh
            if cache_dir is not None:
                cache_put(cache_dir, key, envelope)
    if args.format == "json":
        _emit_json(envelope)
    else:
        for source_name, rows in sorted(envelope["payload"]["sources"].items()):
            if len(envelope["payload"]["sources"]) > 1:
                print(f"# source: {source_name}")
            print(schur_table_to_csv(rows), end="")
    if envelope["payload"]["diff"]:
        print("error: formula/oracle tables disagree", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- stability ----------------------------------------------------------


def cmd_stability(args) -> int:
    mu = _parse_partition(args.mu)
    mode = FixedK(args.fixed_k) if args.fixed_k is not None else FixedCodim(args.fixed_codim)
    seq = multiplicity_sequence(mu, args.s, mode, args.n_max, source=args.source)
    report = detect_onset(seq)
    mode_json = {"fixed-k": mode.k} if isinstance(mode, FixedK) else {"fixed-codim": mode.m}
    payload = {
        "kind": "stability_report",
        "mu": list(mu.parts),
        "s": args.s,
        "mode": mode_json,
        "values": [list(v) for v in seq.values],
        "truncated_at": seq.truncated_at,
        "n_obs": report.n_obs,
        "n_bound": report.n_bound,
        "stable_value": report.stable_value,
        "verdict": report.verdict,
        "detail": report.detail,
    }
    params = {
        "mu": list(mu.parts),
        "s": args.s,
        "mode": mode_json,
        "n_max": args.n_max,
        "source": args.source,
    }
    _emit_json(make_envelope("stability", params, payload, args.source, __version__))
    if report.verdict == VERDICT_PASS:
        return EXIT_OK
    if report.verdict == VERDICT_FAIL:
        return EXIT_MISMATCH
    print(f"inconclusive: {report.detail}", file=sys.stderr)
    return EXIT_INCONCLUSIVE


# -- superspace ---------------------------------------------------------


def cmd_superspace(args) -> int:
    n, k = args.n, args.k
    if args.check_identity:
        mode = "check-identity"
        result = vandermonde_derivative_identity(n, k)
        payload = {
            "kind": "identity_check",
            "n": n,
            "k": k,
            "equal": result.equal,
            "lhs": superpoly_to_json(result.lhs),
            "rhs": superpoly_to_json(result.rhs),
        }
    elif args.closure:
        mode = "closure"
        closure = harmonic_closure(n, 1, 1, k)
        payload = {
            "kind": "closure_hilbert",
            "n": n,
            "k": k,
            "entries": [
                {"x_degree": alpha[0], "theta_degree": beta[0], "dim": dim}
                for (alpha, beta), dim in closure.dims().items()
            ],
            "series": poly_to_json(closure.hilbert()),
        }
    else:
        mode = "frobenius"
        tables = frobenius_of_closure(n, 1, 1, k)
        entries = [
            {"x_degree": alpha[0], "theta_degree": beta[0], "expansion": expansion_to_json(exp)}
            for (alpha, beta), exp in sorted(tables.items())
        ]
        payload = {"kind": "closure_frobenius", "n": n, "k": k, "entries": entries}
    params = {"n": n, "k": k, "mode": mode}
    _emit_json(make_envelope("superspace", params, payload, "superspace", __version__))
    # only the identity check can fail
    return EXIT_OK if payload.get("equal", True) else EXIT_MISMATCH


# -- explore ------------------------------------------------------------


def _expansion_q_top(exp: SchurExpansion) -> int:
    return max((poly.q_degree() for _, poly in exp.items()), default=0)


def _twist_candidates(exp: SchurExpansion, top: int) -> dict[str, SchurExpansion]:
    return {
        "identity": exp,
        "omega": omega(exp),
        "q-reverse": q_reverse(exp, top),
        "omega+q-reverse": omega(q_reverse(exp, top)),
    }


def _closure_z_slice(n: int, k: int) -> SchurExpansion:
    """q-graded expansion of the theta-degree n - k slice of the closure,
    read off the closure capped at theta-degree 0 (``theta_cap`` of
    :func:`harmonic_closure`)."""
    capped = harmonic_closure(n, 1, 1, k, theta_cap=0)
    tables = frobenius_of_closure(n, 1, 1, k, closure=capped)
    slice_by_x = {alpha[0]: exp for (alpha, beta), exp in tables.items() if beta[0] == n - k}
    return q_graded(n, slice_by_x)


def _explore_rw_twist(n: int) -> dict:
    per_k = []
    for k in range(1, n + 1):
        v_slice = _closure_z_slice(n, k)
        ring = grfrob_tableaux(n, k).as_q_expansion()
        top = max(_expansion_q_top(ring), _expansion_q_top(v_slice))
        matches = [name for name, cand in _twist_candidates(ring, top).items() if cand == v_slice]
        per_k.append(
            {
                "k": k,
                "v_slice": expansion_to_json(v_slice),
                "ring_side": expansion_to_json(ring),
                "q_top": top,
                "matching_transforms": matches,
            }
        )
    return {"kind": "experiment", "problem": "rw-twist", "n": n, "per_k": per_k}


def _explore_zabrocki_t0(n: int) -> dict:
    # bigraded table of the superspace coinvariant quotient
    table = super_coinvariant_table(n)
    r_entries = [
        {"x_degree": a, "theta_degree": b, "expansion": expansion_to_json(exp)}
        for (a, b), exp in table.items()
    ]
    # assembled theta-degree slices of the closure spaces
    v_entries = []
    agrees = True
    for k in range(1, n + 1):
        v_slice = _closure_z_slice(n, k)
        v_entries.append(
            {"k": k, "theta_degree": n - k, "expansion": expansion_to_json(v_slice)}
        )
        agrees &= q_graded(n, {a: exp for (a, b), exp in table.items() if b == n - k}) == v_slice
    return {
        "kind": "experiment",
        "problem": "zabrocki-t0",
        "n": n,
        "quotient_table": r_entries,
        "closure_slices": v_entries,
        "agrees_at_this_size": agrees,
    }


def _explore_grassmann(d: int, n: int, k: int) -> dict:
    dec = grassmann_quotient(d, n, k)
    return {
        "kind": "experiment",
        "problem": "grassmann",
        "d": d,
        "n": n,
        "k": k,
        "dims": {str(deg): dim for deg, dim in sorted(dec.dims.items())},
        "table": degree_table_to_json(dec.by_degree),
    }


def cmd_explore(args) -> int:
    if args.problem != "grassmann" and args.n < 1:
        raise ValueError(f"need n >= 1, got --n {args.n}")
    if args.problem == "rw-twist":
        payload = _explore_rw_twist(args.n)
        params = {"problem": "rw-twist", "n": args.n}
    elif args.problem == "zabrocki-t0":
        payload = _explore_zabrocki_t0(args.n)
        params = {"problem": "zabrocki-t0", "n": args.n}
    else:
        payload = _explore_grassmann(args.d, args.n, args.k)
        params = {"problem": "grassmann", "d": args.d, "n": args.n, "k": args.k}
    envelope = make_envelope("explore", params, payload, "experiment", __version__)
    name = "-".join(f"{key}{value}" for key, value in sorted(params.items()))
    path = Path(args.fixtures_dir) / f"{name}.json"
    write_atomic(path, envelope_bytes(envelope))
    _emit_json(envelope)
    print(f"fixture written to {path}", file=sys.stderr)
    return EXIT_OK


# -- parser -------------------------------------------------------------


@functools.cache  # built on the first main call and reused; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanrep",
        description="Graded symmetric-group decompositions of spanning-configuration"
        " cohomology, computed by closed formula and by brute-force oracle.",
    )
    parser.add_argument("--version", action="version", version=f"spanrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fro = sub.add_parser("frobenius", help="per-degree Schur tables for one (n, k)")
    fro.add_argument("n", type=int)
    fro.add_argument("k", type=int)
    fro.add_argument("--source", choices=("formula", "oracle", "both"), default="formula")
    fro.add_argument("--format", choices=("json", "csv"), default="json")
    fro.add_argument("--max-degree", type=int, default=None,
                     help="report degrees up to this one only")
    fro.add_argument("--cache-dir", default=None,
                     help=f"result cache directory (or ${ENV_CACHE_DIR})")
    fro.add_argument("--verify-cache", action="store_true",
                     help="recompute on hits and verify the cached payload")
    fro.set_defaults(func=cmd_frobenius)

    sta = sub.add_parser("stability", help="multiplicity sequence and onset report")
    sta.add_argument("mu", help="stable label, comma-separated parts ('-' for empty)")
    sta.add_argument("s", type=int, help="half cohomological degree")
    mode = sta.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixed-k", type=int, default=None)
    mode.add_argument("--fixed-codim", type=int, default=None)
    sta.add_argument("--n-max", type=int, required=True)
    sta.add_argument("--source", choices=("formula", "oracle"), default="formula")
    sta.set_defaults(func=cmd_stability)

    sup = sub.add_parser("superspace", help="superspace checks and closures")
    sup.add_argument("n", type=int)
    sup.add_argument("k", type=int)
    mode = sup.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check-identity", action="store_true")
    mode.add_argument("--closure", action="store_true")
    mode.add_argument("--frobenius", action="store_true")
    sup.set_defaults(func=cmd_superspace)

    exp = sub.add_parser("explore", help="non-gating experiments for open comparisons")
    exp.add_argument("--problem", choices=("rw-twist", "zabrocki-t0", "grassmann"),
                     required=True)
    exp.add_argument("--n", type=int, default=2)
    exp.add_argument("--k", type=int, default=3)
    exp.add_argument("--d", type=int, default=2)
    exp.add_argument("--fixtures-dir", default="fixtures")
    exp.set_defaults(func=cmd_explore)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScaleGuardError as exc:
        print(f"scale guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        # Commands and the library reject out-of-range arguments with
        # ValueError, and an unwritable --cache-dir or --fixtures-dir raises
        # OSError, so here each is a usage error.  RuntimeError stays uncaught: it is how the
        # exactness tripwires report a bug.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
