"""JSON and CSV encodings of the library's result types.

The JSON schema is versioned and deterministic: partitions are arrays of
integers, graded polynomials are sorted lists of [[q, t, z], coefficient]
pairs with coefficients carried as decimal strings (they can exceed any
fixed-width integer), and envelopes serialize with sorted keys so equal
payloads are byte-identical.  Timestamps live only in provenance, which
comparisons ignore.  Decoders accept only what the encoders write.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from fractions import Fraction

from .combinat import GradedPoly, Partition
from .superspace import SuperMonomial, SuperPoly
from .symfun import SchurExpansion

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "degree_table_from_json",
    "degree_table_to_json",
    "envelope_bytes",
    "envelope_from_bytes",
    "expansion_from_json",
    "expansion_to_json",
    "int_from_json",
    "make_envelope",
    "partition_from_json",
    "partition_to_json",
    "payloads_equal",
    "poly_from_json",
    "poly_to_json",
    "schur_table_to_csv",
    "superpoly_from_json",
    "superpoly_to_json",
]


def poly_to_json(poly: GradedPoly) -> list:
    return [[[qe, te, ze], str(c)] for (qe, te, ze), c in poly.items()]


def poly_from_json(data: list) -> GradedPoly:
    """Inverse of :func:`poly_to_json`."""
    return GradedPoly({tuple(map(int_from_json, exps)): _exact(int, c) for exps, c in data})


def int_from_json(value) -> int:
    """value, when it is a JSON integer: not a float or boolean equal to one."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def _exact(kind, text):
    """kind(text), when text is the decimal string str writes for it."""
    if not isinstance(text, str) or str(value := kind(text)) != text:
        raise ValueError(f"coefficient must be a decimal string as written, got {text!r}")
    return value


def partition_to_json(lam: Partition) -> list[int]:
    return list(lam.parts)


def partition_from_json(data: list) -> Partition:
    return Partition(tuple(map(int_from_json, data)))


def expansion_to_json(exp: SchurExpansion) -> dict:
    return {
        "n": exp.n,
        "terms": [
            {"shape": partition_to_json(lam), "coeff": poly_to_json(poly)}
            for lam, poly in exp.items()
        ],
    }


def expansion_from_json(data: dict) -> SchurExpansion:
    return SchurExpansion(
        int_from_json(data["n"]),
        {
            partition_from_json(term["shape"]): poly_from_json(term["coeff"])
            for term in data["terms"]
        },
    )


def degree_table_to_json(by_degree: dict[int, SchurExpansion]) -> list:
    """Flatten {degree: expansion} to sorted (degree, shape, coeff) rows."""
    rows = []
    for s in sorted(by_degree):
        for lam, poly in by_degree[s].items():
            rows.append(
                {"degree": s, "shape": partition_to_json(lam), "coeff": poly_to_json(poly)}
            )
    return rows


def degree_table_from_json(rows: list, n: int) -> dict[int, SchurExpansion]:
    acc: dict[int, dict[Partition, GradedPoly]] = {}
    for row in rows:
        if (s := int_from_json(row["degree"])) < 0:
            raise ValueError(f"degree must be nonnegative, got {s}")
        acc.setdefault(s, {})[partition_from_json(row["shape"])] = poly_from_json(row["coeff"])
    return {s: SchurExpansion(n, coeffs) for s, coeffs in acc.items()}


def schur_table_to_csv(rows: list) -> str:
    """CSV flattening of a degree table: one row per (degree, shape)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["degree", "shape", "coeff"])
    for row in rows:
        poly = poly_from_json(row["coeff"])
        shape = ",".join(str(x) for x in row["shape"])
        writer.writerow([row["degree"], shape, poly.as_str()])
    return buf.getvalue()


def superpoly_to_json(poly: SuperPoly) -> dict:
    terms = [
        [[list(b) for b in mono.xs], [list(b) for b in mono.thetas], str(c)]
        for mono, c in poly.items()
    ]
    return {"n": poly.n, "m": poly.m, "p": poly.p, "terms": terms}


def superpoly_from_json(data: dict) -> SuperPoly:
    """Inverse of :func:`superpoly_to_json`."""
    terms = {}
    for xs, thetas, coeff in data["terms"]:
        mono = SuperMonomial(
            tuple(tuple(map(int_from_json, b)) for b in xs),
            tuple(tuple(map(int_from_json, b)) for b in thetas),
        )
        terms[mono] = _exact(Fraction, coeff)
    return SuperPoly(*(int_from_json(data[f]) for f in "nmp"), terms)


def make_envelope(command: str, parameters: dict, payload: dict, source: str, version: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "provenance": {
            "source": source,
            "library_version": version,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }


def envelope_bytes(envelope: dict) -> bytes:
    return (json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n").encode()


def envelope_from_bytes(raw: bytes) -> dict:
    env = json.loads(raw.decode())
    for field in ("schema_version", "command", "parameters", "payload", "provenance"):
        if field not in env:
            raise ValueError(f"envelope missing {field!r}")
    if int_from_json(env["schema_version"]) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {env['schema_version']!r}")
    return env


def payloads_equal(a: dict, b: dict) -> bool:
    """Envelope equivalence: same command, parameters, and payload.

    Provenance (in particular the timestamp) is deliberately excluded.
    """
    keys = ("schema_version", "command", "parameters", "payload")
    return all(a.get(k) == b.get(k) for k in keys)
