"""The benchmark's three workloads and the checks on every output.

A request is a dict with an ``id`` (stable across seeds and runs, the key
of the recorded digests) and the inputs the worker hands to spanrep.  The
seed only orders requests; it never changes which requests a pass makes,
so every seed costs the same work and checks the same way.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb, factorial

WORKLOADS = ("crosscheck", "stability", "explore")

# (6,5) and (6,6) are left out: each costs more than the rest together.
CROSSCHECK_PAIRS = [
    (n, k) for n in range(1, 7) for k in range(1, n + 1) if (n, k) not in {(6, 5), (6, 6)}
] + [(7, 1), (7, 2)]

# (mu, s, k or m, n_max); n_max is stabilization_bound + 3 at the seed commit,
# so every sequence runs far enough past the bound for a definite verdict.
STABILITY_FIXED_K = [
    ((), 4, 2, 12), ((), 6, 3, 16), ((1,), 5, 3, 14), ((1,), 7, 3, 18),
    ((2,), 6, 4, 16), ((2, 1), 5, 3, 14), ((2, 2), 6, 2, 16), ((2, 2), 7, 3, 18),
    ((3, 1), 6, 3, 16), ((2, 1, 1), 6, 3, 16), ((3, 2), 7, 3, 18),
]
STABILITY_FIXED_CODIM = [
    ((2, 1), 4, 1, 14), ((1, 1), 5, 2, 17), ((3,), 5, 1, 16),
    ((2, 1), 6, 2, 19), ((2, 2), 5, 1, 16), ((3, 1), 5, 1, 16),
]
# (mu, s, k): oracle-source sequences to n = 7, compared with the formula side.
ORACLE_SEQUENCES = [
    ((), 1, 2), ((), 2, 2), ((1,), 2, 2), ((1,), 3, 2), ((), 3, 3), ((2,), 3, 3), ((1, 1), 3, 2),
]
ORACLE_N_MAX = 7

# (2,3,4) is left out of the Grassmann cases: it alone takes about 35 s.
EXPLORE_ARGV = (
    [["superspace", "5", str(k), "--frobenius"] for k in range(1, 6)]
    + [["superspace", str(n), str(k), "--check-identity"] for n in range(1, 6) for k in range(n)]
    + [["explore", "--problem", "rw-twist", "--n", str(n)] for n in range(1, 5)]
    + [["explore", "--problem", "zabrocki-t0", "--n", str(n)] for n in range(1, 5)]
    + [
        ["explore", "--problem", "grassmann", "--d", "2", "--n", str(n), "--k", str(k)]
        for n in range(1, 4)
        for k in range(2, min(2 * n, 4) + 1)
        if (n, k) != (3, 4)
    ]
)


def _mu_text(mu) -> str:
    return ",".join(map(str, mu)) or "-"


def cli_request(argv: list[str], dir_flag: str | None = None) -> dict:
    return {"id": " ".join(argv), "kind": "cli", "argv": argv, "dir_flag": dir_flag}


def requests(workload: str, rng: random.Random) -> list[dict]:
    """One pass of the workload, in an order drawn from rng."""
    if workload == "crosscheck":
        first = [
            cli_request(["frobenius", str(n), str(k), "--source", "both"], "--cache-dir")
            for n, k in CROSSCHECK_PAIRS
        ]
        rng.shuffle(first)
        replay = list(first)
        rng.shuffle(replay)
        return first + replay
    if workload == "stability":
        reqs = []
        for mode, table in (("fixed-k", STABILITY_FIXED_K), ("fixed-codim", STABILITY_FIXED_CODIM)):
            for mu, s, x, n_max in table:
                reqs.append({
                    "id": f"stability {mode} mu={_mu_text(mu)} s={s} x={x} n_max={n_max}",
                    "kind": "stability", "mu": list(mu), "s": s, "mode": mode, "x": x,
                    "n_max": n_max,
                })
        for mu, s, k in ORACLE_SEQUENCES:
            reqs.append({
                "id": f"oracle-sequence mu={_mu_text(mu)} s={s} k={k} n_max={ORACLE_N_MAX}",
                "kind": "oracle-sequence", "mu": list(mu), "s": s, "mode": "fixed-k", "x": k,
                "n_max": ORACLE_N_MAX,
            })
        rng.shuffle(reqs)
        return reqs
    if workload == "explore":
        reqs = [cli_request(argv, "--fixtures-dir" if argv[0] == "explore" else None)
                for argv in EXPLORE_ARGV]
        rng.shuffle(reqs)
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -------------------------------------------------------------


def digest(payload) -> str:
    """sha256 of the canonical JSON of a payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by inclusion-exclusion."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def ordered_set_partitions(n: int, k: int) -> int:
    """Number of ordered set partitions of [n] into k blocks: k! S(n, k)."""
    return factorial(k) * stirling2(n, k)


def _syt_count(shape: list[int]) -> int:
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(shape)) // hooks


def table_dimension(rows: list[dict]) -> int:
    """Total dimension of a serialized degree table: sum of multiplicity
    times the number of standard tableaux of the shape."""
    return sum(
        int(coeff) * _syt_count(row["shape"]) for row in rows for _, coeff in row["coeff"]
    )


def _cli_problems(req: dict, envelope: dict) -> list[str]:
    payload = envelope["payload"]
    argv = req["argv"]
    problems = []
    if argv[0] == "frobenius":
        n, k = int(argv[1]), int(argv[2])
        if payload["diff"] != []:
            problems.append("formula and oracle tables differ")
        want = ordered_set_partitions(n, k)
        for source, rows in sorted(payload["sources"].items()):
            got = table_dimension(rows)
            if got != want:
                problems.append(f"{source} dimension {got} != {k}! S({n},{k}) = {want}")
    elif argv[0] == "superspace" and "--check-identity" in argv:
        if payload["equal"] is not True:
            problems.append("Vandermonde derivative identity does not hold")
    elif payload.get("problem") == "rw-twist":
        for entry in payload["per_k"]:
            if "omega+q-reverse" not in entry["matching_transforms"]:
                problems.append(f"omega+q-reverse does not match at k={entry['k']}")
    elif payload.get("problem") == "zabrocki-t0":
        if payload["agrees_at_this_size"] is not True:
            problems.append("quotient table and closure slices disagree")
    return problems


def check(req: dict, outcome: dict) -> tuple[str | None, list[str]]:
    """Digest and invariant violations of one request's outcome.

    outcome is {"exit": code, "stdout": text} for a CLI request and the
    result dict for the others.  The digest excludes provenance, which
    carries a timestamp.
    """
    if req["kind"] == "cli":
        if outcome["exit"] != 0:
            return None, [f"exit code {outcome['exit']}"]
        try:
            envelope = json.loads(outcome["stdout"])
        except json.JSONDecodeError as exc:
            return None, [f"stdout is not JSON: {exc}"]
        envelope.pop("provenance", None)
        try:
            problems = _cli_problems(req, envelope)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed payload: {exc!r}"]
        return digest(envelope), problems
    problems = []
    if req["kind"] == "stability":
        if outcome["verdict"] != "stable-within-bound":
            problems.append(f"verdict {outcome['verdict']}: {outcome['detail']}")
    elif outcome["oracle"] != outcome["formula"] or outcome["truncated_at"] is not None:
        problems.append("oracle and formula sequences differ")
    return digest(outcome), problems


def judge(req_id: str, found: str | None, problems: list[str], recorded: dict) -> list[str]:
    """All reasons a request failed: its own problems plus a digest that is
    missing or differs from the one recorded for the request."""
    out = list(problems)
    want = recorded.get(req_id)
    if want is None:
        out.append("no recorded digest for this request")
    elif found != want:
        out.append(f"digest {found} != recorded {want}")
    return out
