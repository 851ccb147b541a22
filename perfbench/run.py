#!/usr/bin/env python3
"""spanrep benchmark: one closed-loop client, one fresh worker per pass.

Run from the root of a spanrep checkout:

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 30 --trace 0

A pass sends the workload's requests one at a time to a fresh worker
interpreter (perfbench/worker.py), so spanrep's in-process memo tables
start empty every pass.  Passes repeat while another pass of the last
one's length still fits in --seconds (at least one pass runs).  Every
output is checked against invariants and against the digest recorded for
its request in perfbench/digests.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
passes).  --trace 1 runs each pass twice, untraced then traced, and
reports the per-layer metrics of the traced passes; trace.overhead_s is
the traced minus the untraced median sweep_s.  Spans are written to
.perfbench_out/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import reference_seconds  # noqa: E402
from workloads import WORKLOADS, judge, requests  # noqa: E402

DIGESTS = HERE / "digests.json"
# Extra workers that only start up, half before and half after the passes,
# so that the setup_s median spans more than one phase of host load.
SETUP_PROBES = 12
DEADLINE_S = 170  # every run must end within 180 s


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A worker interpreter with the line protocol of worker.py."""

    def __init__(self, root: Path, scratch: Path, trace: bool, spans: Path | None, deadline: float):
        env = {k: v for k, v in os.environ.items() if k not in ("SPANREP_CACHE_DIR", "PYTHONPATH")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        cmd = [sys.executable, str(HERE / "worker.py"), "--scratch", str(scratch),
               "--trace", str(int(trace))]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self._start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self._watchdog.start()

    def wait_ready(self) -> float:
        """Reference seconds from starting the interpreter until it can
        serve requests, less the calibration it reports."""
        costs = self._read()["calibration"]
        wall_s = time.perf_counter() - self._start
        return reference_seconds(wall_s - sum(costs), costs)

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, req: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerDied("worker closed its input") from exc
        return self._read()

    def finish(self) -> dict:
        self.proc.stdin.close()
        final = self._read()
        self.proc.wait()
        return final

    def close(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def run_pass(root: Path, scratch: Path, reqs: list[dict], recorded: dict | None,
             trace: bool, spans: Path | None, deadline: float) -> dict:
    """Serve one pass in a fresh worker; recorded=None skips the digest check."""
    scratch.mkdir(parents=True)
    setup_s, ops, walls, digests, failures, final = None, [], [], {}, [], None
    worker = Worker(root, scratch, trace, spans, deadline)
    try:
        setup_s = worker.wait_ready()
        for req in reqs:
            answer = worker.ask(req)
            ops.append(answer["op_ref_s"])
            walls.append(answer["op_s"])
            digests[req["id"]] = answer["digest"]
            problems = answer["problems"]
            if recorded is not None:
                problems = judge(req["id"], answer["digest"], problems, recorded)
            if problems:
                failures.append((req["id"], problems))
        final = worker.finish()
    except WorkerDied as exc:
        failures += [(req["id"], [str(exc)]) for req in reqs[len(ops):]]
    finally:
        worker.close()
    return {
        "completed": final is not None,
        "setup_s": setup_s,
        "sweep_s": sum(ops),
        "sweep_wall_s": sum(walls),
        "slowest_op_s": max(ops, default=0.0),
        "attempted": len(reqs),
        "failures": failures,
        "digests": digests,
        "rss_mb": final and final["rss_mb"],
        "layers": final and final["layers"],
    }


def probe_setup(root: Path, scratch: Path, deadline: float) -> float:
    scratch.mkdir(parents=True)
    worker = Worker(root, scratch, False, None, deadline)
    try:
        setup_s = worker.wait_ready()
        worker.finish()
    finally:
        worker.close()
    return setup_s


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            recorded: dict | None, tmp: Path) -> dict:
    """All passes of one run; returns the raw pass records."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = root / ".perfbench_out"
    if trace:
        out_dir.mkdir(exist_ok=True)
    rng = random.Random(seed)
    setups = [probe_setup(root, tmp / f"probe{i}", deadline) for i in range(SETUP_PROBES // 2)]
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        i = len(plain)
        started = time.perf_counter()
        reqs = requests(workload, rng)
        plain.append(run_pass(root, tmp / f"pass{i}", reqs, recorded, False, None, deadline))
        if trace:
            spans = out_dir / f"trace-{workload}-seed{seed}-pass{i}.json"
            traced.append(run_pass(root, tmp / f"traced{i}", reqs, recorded, True, spans, deadline))
        now = time.perf_counter()
        if (now - begin) + (now - started) > seconds:
            break
    setups += [probe_setup(root, tmp / f"probe{i}", deadline)
               for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    setups += [p["setup_s"] for p in plain if p["setup_s"] is not None]
    return {"setups": setups, "plain": plain, "traced": traced}


def summarize(spec: dict, run: dict, trace: bool) -> dict:
    """The result object: correctness, counts and the requested metrics."""
    passes = run["plain"] + run["traced"]
    failures = [f for p in passes for f in p["failures"]]
    problems = [f"{rid}: {why}" for rid, whys in failures for why in whys]
    plain = run["plain"]
    if trace:
        for untraced, traced in zip(plain, run["traced"]):
            if untraced["digests"] != traced["digests"]:
                problems.append("traced and untraced passes produced different digests")
            if traced["layers"] is not None:
                self_sum = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
                if self_sum > traced["sweep_wall_s"]:
                    problems.append(f"layer self times {self_sum} s exceed the traced pass's "
                                    f"{traced['sweep_wall_s']} wall seconds")
    if not all(p["completed"] for p in passes):
        problems.append("a worker died before finishing its pass")
    values: dict[str, float] = {}
    if trace:
        layers = [p["layers"] for p in run["traced"] if p["layers"] is not None]
        for name in layers[0] if layers else ():
            values[name] = statistics.median([layer[name] for layer in layers])
        values["trace.overhead_s"] = (statistics.median([p["sweep_s"] for p in run["traced"]])
                                      - statistics.median([p["sweep_s"] for p in plain]))
        wanted = spec["per_layer"]
    else:
        values["sweep_s"] = statistics.median([p["sweep_s"] for p in plain])
        values["slowest_op_s"] = statistics.median([p["slowest_op_s"] for p in plain])
        values["setup_s"] = statistics.median(run["setups"])
        rss = [p["rss_mb"] for p in plain if p["rss_mb"] is not None]
        values["peak_rss_mb"] = statistics.median(rss) if rss else 0.0
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            problems.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": metrics,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one untraced pass and store its digests in digests.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spanrep" / "cli.py").is_file():
        print(f"error: {root} is not a spanrep checkout (no src/spanrep/cli.py)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    recorded = None if args.record else json.loads(DIGESTS.read_text())

    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.record:
            reqs = requests(args.workload, random.Random(args.seed))
            record = run_pass(root, tmp / "record", reqs, None, False, None,
                              time.monotonic() + DEADLINE_S)
            if record["failures"]:
                for rid, whys in record["failures"]:
                    print(f"{rid}: {whys}", file=sys.stderr)
                return 1
            known = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            known.update(record["digests"])
            DIGESTS.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
            print(f"recorded {len(record['digests'])} digests for {args.workload}")
            return 0
        run = measure(root, args.workload, args.seed, args.seconds, bool(args.trace),
                      recorded, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is still using it

    result = summarize(spec, run, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {len(run['plain'])} pass(es), "
          f"{result['attempted']} requests, {result['failed']} failed, "
          f"failed_frac {result['failed'] / result['attempted']:g}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:45s} {metric['value']:.6g} {metric['unit']}")
    wall = statistics.median([p["sweep_wall_s"] for p in run["plain"]])
    print(f"#   (median untraced sweep in raw wall seconds: {wall:.6g} s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
