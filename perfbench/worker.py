"""One benchmark worker: a fresh interpreter serving one pass of requests.

Protocol, one JSON object per line: after importing spanrep the worker
writes {"calibration"}, the costs of a few speed kernel calls; it then
answers each request line read from stdin with {"op_s", "op_ref_s",
"digest", "problems"}; at end of input it writes {"rss_mb", "layers"} and
exits.  Only the call into spanrep is timed, in wall seconds (op_s) and
in reference seconds (op_ref_s, see speed.py); checking the output is not.

Usage: python3 perfbench/worker.py --scratch DIR [--trace 0|1] [--spans FILE]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import spanrep.cli as cli
from spanrep import stability
from spanrep.combinat import Partition
from spanrep.formula import FixedCodim, FixedK

from speed import Speedometer, kernel
from tracer import Tracer
from workloads import check


def _execute(req: dict, scratch: str) -> dict:
    if req["kind"] == "cli":
        argv = list(req["argv"])
        if req["dir_flag"]:
            argv += [req["dir_flag"], os.path.join(scratch, req["dir_flag"].lstrip("-"))]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return {"exit": code, "stdout": out.getvalue()}
    mu = Partition(tuple(req["mu"]))
    mode = FixedK(req["x"]) if req["mode"] == "fixed-k" else FixedCodim(req["x"])
    s, n_max = req["s"], req["n_max"]
    if req["kind"] == "stability":
        seq = stability.multiplicity_sequence(mu, s, mode, n_max)
        report = stability.detect_onset(seq)
        return {
            "values": [list(v) for v in seq.values],
            "truncated_at": seq.truncated_at,
            "n_obs": report.n_obs,
            "n_bound": report.n_bound,
            "stable_value": report.stable_value,
            "verdict": report.verdict,
            "detail": report.detail,
        }
    oracle = stability.multiplicity_sequence(mu, s, mode, n_max, source="oracle")
    formula = stability.multiplicity_sequence(mu, s, mode, n_max)
    return {
        "oracle": [list(v) for v in oracle.values],
        "formula": [list(v) for v in formula.values],
        "truncated_at": oracle.truncated_at,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    reply = sys.stdout
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    def send(obj: dict) -> None:
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    speed = Speedometer()
    kernel()  # the first call runs before the interpreter has specialized it
    for _ in range(3):
        speed.sample()
    send({"calibration": speed.costs})
    speed.start()
    for line in sys.stdin:
        req = json.loads(line)
        if tracer is not None:
            tracer.begin_request(req["id"])
        start = time.perf_counter()
        try:
            outcome = _execute(req, args.scratch)
        except Exception:  # one failed request must not end the pass
            end = time.perf_counter()
            send({"op_s": end - start, "op_ref_s": speed.interval(start, end),
                  "digest": None, "problems": [traceback.format_exc()]})
            continue
        end = time.perf_counter()
        if tracer is not None and req["kind"] == "cli":
            tracer.counters["cli.stdout_bytes"] += len(outcome["stdout"].encode())
        found, problems = check(req, outcome)
        send({"op_s": end - start, "op_ref_s": speed.interval(start, end),
              "digest": found, "problems": problems})

    speed.stop()
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans)
    send({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main())
