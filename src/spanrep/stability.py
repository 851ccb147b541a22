"""Multiplicity sequences, stabilization onsets, and the proven bounds.

A multiplicity sequence tracks, for a fixed stable label mu and half
degree s, the multiplicity of the padded shape as n grows, with either
the ambient dimension k fixed or the codimension m = n - k fixed.
`detect_onset` finds where the sequence actually stabilizes and checks
that against the theoretical bound and the closed-form stable value.

Verification happens entirely at the multiplicity level; the geometric
maps realizing the stabilization are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import Partition, des, maj, pad, syt_enumerate
from .errors import PaddingError, ScaleGuardError
from .formula import (
    FixedK,
    Mode,
    shape_multiplicity,
    stabilization_bound,
    stable_multiplicity,
)
from .oracle import decompose_coinvariants

__all__ = [
    "MultiplicitySequence",
    "StabilityReport",
    "VERDICT_FAIL",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_PASS",
    "detect_onset",
    "first_row_extension_bijective",
    "multiplicity_sequence",
]

VERDICT_PASS = "stable-within-bound"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"

# Samples required beyond the observed onset before a tail counts as constant.
MIN_TAIL_SAMPLES = 3


@dataclass(frozen=True)
class MultiplicitySequence:
    """Values (n, multiplicity of pad(mu, n)) for contiguous ascending n."""

    mu: Partition
    s: int
    mode: Mode
    values: tuple[tuple[int, int], ...]
    truncated_at: int | None = None  # first n the oracle could not reach

    def n_max(self) -> int:
        return self.values[-1][0] if self.values else 0


def _ambient_k(mode: Mode, n: int) -> int:
    return mode.k if isinstance(mode, FixedK) else n - mode.m


def _multiplicity(mu: Partition, s: int, k: int, n: int, source: str) -> int:
    try:
        lam = pad(mu, n)
    except PaddingError:
        return 0  # padding infeasible: multiplicity is zero by convention
    if not 1 <= k <= n:
        return 0  # empty configuration space
    if source == "formula":
        return shape_multiplicity(lam, k, s)
    return decompose_coinvariants(n, k, max_degree=s).coefficient(s, lam).coefficient()


def multiplicity_sequence(
    mu: Partition,
    s: int,
    mode: Mode,
    n_max: int,
    source: str = "formula",
) -> MultiplicitySequence:
    """Compute the multiplicity sequence for n = 1 .. n_max.

    source="oracle" recomputes each value from the quotient ring; past the
    oracle's scale guard the sequence is truncated and flagged rather than
    silently shortened.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if source not in ("formula", "oracle"):
        raise ValueError(f"unknown source {source!r}")
    values = []
    truncated_at = None
    for n in range(1, n_max + 1):
        try:
            values.append((n, _multiplicity(mu, s, _ambient_k(mode, n), n, source)))
        except ScaleGuardError:  # only the oracle has scale guards
            truncated_at = n
            break
    return MultiplicitySequence(mu, s, mode, tuple(values), truncated_at)


@dataclass(frozen=True)
class StabilityReport:
    n_obs: int | None
    stable_value: int | None
    n_bound: int
    verdict: str
    detail: str = ""


def detect_onset(seq: MultiplicitySequence) -> StabilityReport:
    """Locate the stabilization onset and check it against the bound.

    The verdict is inconclusive (never a silent pass) when the sequence is
    too short: it must extend at least two past the theoretical bound and
    carry at least MIN_TAIL_SAMPLES agreeing samples beyond the onset.
    """
    n_bound = stabilization_bound(seq.mu, seq.s, seq.mode)
    if seq.truncated_at is not None:
        return StabilityReport(
            None, None, n_bound, VERDICT_INCONCLUSIVE,
            f"oracle truncated at n={seq.truncated_at}",
        )
    if not seq.values or seq.n_max() < n_bound + 2:
        return StabilityReport(
            None, None, n_bound, VERDICT_INCONCLUSIVE,
            f"sequence must extend at least 2 beyond the bound {n_bound}",
        )
    ns = [n for n, _ in seq.values]
    if ns != list(range(ns[0], ns[-1] + 1)):
        raise ValueError("sequence values must be contiguous ascending in n")
    vals = [v for _, v in seq.values]
    tail_value = vals[-1]
    idx = len(vals) - 1
    while idx > 0 and vals[idx - 1] == tail_value:
        idx -= 1
    n_obs = ns[idx]
    if seq.n_max() - n_obs < MIN_TAIL_SAMPLES:
        return StabilityReport(
            n_obs, tail_value, n_bound, VERDICT_INCONCLUSIVE,
            f"only {seq.n_max() - n_obs} samples beyond the observed onset",
        )
    if n_obs > n_bound:
        return StabilityReport(
            n_obs, tail_value, n_bound, VERDICT_FAIL,
            f"observed onset {n_obs} exceeds the bound {n_bound}",
        )
    expected = stable_multiplicity(seq.mu, seq.s, seq.mode)
    if tail_value != expected:
        return StabilityReport(
            n_obs, tail_value, n_bound, VERDICT_FAIL,
            f"stable value {tail_value} != closed-form value {expected}",
        )
    return StabilityReport(n_obs, tail_value, n_bound, VERDICT_PASS)


def first_row_extension_bijective(mu: Partition, s: int, n: int) -> bool:
    """Check the box-adding map on tableaux with major index at most s.

    Appending n + 1 to the first row never creates a descent, so the map
    preserves (des, maj); for n > 2s it is a bijection onto the tableaux
    of the next padded shape.  Verified here by exhaustive enumeration.
    """
    if n <= 2 * s:
        raise ValueError(f"need n > 2s, got n={n}, s={s}")
    lam = pad(mu, n)       # raises PaddingError when infeasible
    lam_up = pad(mu, n + 1)
    domain = [t for t in syt_enumerate(lam) if maj(t) <= s]
    codomain = {t.rows: t for t in syt_enumerate(lam_up) if maj(t) <= s}
    images = set()
    for t in domain:
        extended = ((t.rows[0] + (n + 1,)),) + t.rows[1:]
        if extended not in codomain:
            return False
        u = codomain[extended]
        if des(u) != des(t) or maj(u) != maj(t):
            return False
        images.add(extended)
    return len(images) == len(domain) == len(codomain)
