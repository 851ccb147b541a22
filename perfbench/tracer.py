"""Spans around spanrep's layer boundaries, recorded from outside the library.

Each target function is replaced, in every spanrep module that binds it,
by a wrapper that records a span (name, start, end, parent, request) in
memory.  Replacing the name where the caller looks it up matters: cli
imports `decompose_coinvariants` by name, so patching only
`spanrep.oracle` would miss the CLI's calls.  `EchelonBasis` methods are
patched on the class.

A layer's self time is the summed duration of its spans minus the
duration of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


def _quotient_piece(tracer, args, result):
    # quotient_basis is memoized per (n, k, d) and read again by every
    # character evaluation; count each degree piece once per process.
    key = args[:3]
    if key not in tracer.pieces:
        tracer.pieces.add(key)
        dim, basis = result
        tracer.counters["oracle.degree_pieces"] += 1
        tracer.counters["oracle.monomials_spanned"] += dim + basis.rank


def _count(counter: str, measure):
    def record(tracer, args, result):
        tracer.counters[counter] += measure(result)
    return record


# (module, attribute, span name, optional record(tracer, args, result))
TARGETS = [
    ("spanrep.linalg", "EchelonBasis.insert", "linalg.insert",
     _count("linalg.insert.useful", bool)),
    ("spanrep.linalg", "EchelonBasis.reduce", "linalg.reduce", None),
    ("spanrep.oracle", "quotient_basis", "oracle.quotient_basis", _quotient_piece),
    ("spanrep.oracle", "character_on_quotient", "oracle.character_on_quotient", None),
    ("spanrep.oracle", "decompose_coinvariants", "oracle.decompose_coinvariants", None),
    ("spanrep.oracle", "decompose_super_coinvariants", "oracle.decompose_super_coinvariants", None),
    ("spanrep.oracle", "grassmann_quotient", "oracle.grassmann_quotient", None),
    ("spanrep.combinat", "syt_enumerate", "combinat.syt_enumerate",
     _count("combinat.syt_enumerate.tableaux", len)),
    ("spanrep.combinat", "des", "combinat.des_maj", None),
    ("spanrep.combinat", "maj", "combinat.des_maj", None),
    ("spanrep.formula", "grfrob_tableaux", "formula.grfrob_tableaux", None),
    ("spanrep.formula", "shape_multiplicity", "formula.shape_multiplicity", None),
    ("spanrep.formula", "stable_multiplicity", "formula.stable_multiplicity", None),
    ("spanrep.symfun", "schur_decompose", "symfun.schur_decompose", None),
    ("spanrep.superspace", "harmonic_closure", "superspace.harmonic_closure",
     _count("superspace.closure_dim", lambda closure: sum(closure.dims().values()))),
    ("spanrep.superspace", "frobenius_of_closure", "superspace.frobenius_of_closure", None),
    ("spanrep.superspace", "vandermonde_derivative_identity",
     "superspace.vandermonde_derivative_identity", None),
    ("spanrep.stability", "multiplicity_sequence", "stability.multiplicity_sequence",
     _count("stability.sequence_points", lambda seq: len(seq.values))),
    ("spanrep.stability", "detect_onset", "stability.detect_onset", None),
    ("spanrep.cache", "cache_get", "cache.get", _count("cache.hits", lambda r: r[0] == "hit")),
    ("spanrep.cache", "cache_put", "cache.put", None),
    ("spanrep.serialize", "envelope_bytes", "serialize.envelope_bytes", None),
    ("spanrep.cli", "main", "cli.main", None),
]

COUNTERS = (
    "linalg.insert.useful", "oracle.degree_pieces", "oracle.monomials_spanned",
    "combinat.syt_enumerate.tableaux", "superspace.closure_dim", "stability.sequence_points",
    "cache.hits", "cli.stdout_bytes",
)


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # span id -> [name index, start, end, parent id or -1, request index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.requests: list[str] = []
        self.counters: Counter = Counter({name: 0 for name in COUNTERS})
        self.pieces: set = set()

    def begin_request(self, req_id: str) -> None:
        self.requests.append(req_id)

    def _wrap(self, fn, name: str, record):
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1, len(self.requests) - 1]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if record is not None:
                record(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target wherever a spanrep module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spanrep" or name.startswith("spanrep."))]
        for module_name, attr, name, record in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(getattr(cls, method), name, record))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, record)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        """calls and self time per span name, plus the counters and ratios."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (idx, start, end, _, _) in enumerate(self.spans):
            calls[idx] += 1
            total[idx] += (end - start) - child[sid]
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = total[idx]
        out.update(self.counters)
        inserts = out["linalg.insert.calls"]
        out["linalg.insert.useful_frac"] = self.counters["linalg.insert.useful"] / inserts if inserts else 0.0
        gets = out["cache.get.calls"]
        out["cache.hit_frac"] = self.counters["cache.hits"] / gets if gets else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "requests": self.requests,
                       "fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, handle, separators=(",", ":"))
