#!/usr/bin/env python3
"""lpict benchmark: one workload, one process, one client in a closed loop.

    python3 bench/run.py --workload handshake --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Set-up imports lpict from `src/` of this checkout, builds the workload's
inputs from the seed and runs one warm-up operation; it is repeated
SETUP_REPEATS times, each after collecting the garbage of the one before,
and `setup_s` is the median. The timed part then runs
whole rounds of the workload's operations, checking every answer, until the
next round would end after `--seconds` (and at least MIN_OPS operations
have run). Times are scaled by the host's speed (see HostSpeed). With
`--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` lpict's functions are wrapped and the JSON object
holds the per-layer metrics, per operation, and the spans are written to
bench/out/. `--workload all` runs each workload in a child process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("handshake", "long-chain", "pi-terms", "entailment")
SETUP_REPEATS = 7
MIN_OPS = 100  # op_ms.p90 needs at least ten samples beyond it
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
MODULES = {
    "cli": "lpict.cli",
    "parser": "lpict.pi.parser",
    "congruence": "lpict.pi.congruence",
    "formulas": "lpict.logic.formulas",
    "semantics": "lpict.logic.semantics",
    "search": "lpict.logic.search",
    "guarded": "lpict.guarded",
    "trees": "lpict.trees",
}


def import_lpict():
    """A fresh import of lpict from this checkout's src/."""
    for name in [m for m in sys.modules if m == "lpict" or m.startswith("lpict.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lpict = importlib.import_module("lpict")
    if Path(lpict.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"lpict imported from {lpict.__file__}, not from {src}")
    return SimpleNamespace(**{key: importlib.import_module(mod) for key, mod in MODULES.items()})


def attempt(op):
    """Run one operation; return (wall ns, outcome), the outcome being "ok",
    "fault" (the answer the operation's known fault gives) or "wrong"."""
    started = time.perf_counter_ns()
    try:
        result = op.call()
    except Exception:  # a crash is a wrong answer, never a known fault
        return time.perf_counter_ns() - started, "wrong"
    elapsed = time.perf_counter_ns() - started
    try:
        if op.check(result):
            return elapsed, "ok"
        if op.shows_fault is not None and op.shows_fault(result):
            return elapsed, "fault"
    except Exception:  # output the checker cannot read is a wrong answer
        pass
    return elapsed, "wrong"


class HostSpeed:
    """The host's speed, from a fixed probe timed between measurements.

    On a shared host the same pure-Python work can take twice as long for
    seconds to minutes at a time. The probe is benchmark code, not lpict
    (the oracle reading the bundled tls13 model and judging it under every
    attacker subset), so a change to lpict does not move it. A measurement
    is scaled by PROBE_REF_MS over the mean of the probes just before and
    just after it: scaled times are in units of a host on which the probe
    takes PROBE_REF_MS, as this machine's does when it is not slowed. The
    collector is off while the probe runs, so that lpict's heap, which a
    collection would have to walk, does not slow the probe.
    """

    PROBE_REF_MS = 1.3
    INTERVAL_S = 0.1

    def __init__(self):
        self.text = (ROOT / "src/lpict/models/data/tls13.model").read_text()
        self.subsets = [c for r in range(6) for c in itertools.combinations(oracle.CAPABILITIES, r)]
        self.scales = []
        self.pending = []
        self.last_ns = None
        self.last_at = 0.0
        self.probes = 0

    def probe(self):
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter_ns()
        model = oracle.read_model(self.text)
        for subset in self.subsets:
            oracle.expected_dual(model, subset)
        took = time.perf_counter_ns() - started
        if collecting:
            gc.enable()
        around = took if self.last_ns is None else (self.last_ns + took) / 2
        for i in self.pending:
            self.scales[i] = self.PROBE_REF_MS * 1e6 / around
        self.pending, self.last_ns, self.last_at = [], took, time.perf_counter()
        self.probes += 1

    def mark(self):
        """Open a measurement, probing first if the last probe is old; its
        scale is set by the next probe."""
        if time.perf_counter() - self.last_at >= self.INTERVAL_S:
            self.probe()
        self.pending.append(len(self.scales))
        self.scales.append(None)


def nearest_rank(ordered, q):
    return ordered[math.ceil(q * len(ordered)) - 1]


def latency_metrics(samples):
    """ops_per_s, op_ms.p50 and op_ms.p90 from samples in ns."""
    ordered = sorted(samples)
    return {
        "ops_per_s": len(samples) / (sum(samples) / 1e9),
        "op_ms.p50": nearest_rank(ordered, 0.5) / 1e6,
        "op_ms.p90": nearest_rank(ordered, 0.9) / 1e6,
    }


def run_workload(name, seed, seconds, trace):
    import workloads

    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, speed = [], HostSpeed()
        for _ in range(SETUP_REPEATS):
            # The modules and inputs of the set-up before are garbage now;
            # collect them so that neither this set-up's time nor the
            # process's peak memory counts them.
            lp = ops = None
            gc.collect()
            speed.mark()
            started = time.perf_counter_ns()
            lp = import_lpict()
            rng = random.Random(f"{name}:{seed}")
            ops = workloads.WORKLOADS[name](lp, rng, ROOT, workdir)
            _, warm = attempt(ops[0])
            setups.append(time.perf_counter_ns() - started)
            speed.probe()
        setup_scales = speed.scales
        rng.shuffle(ops)

        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer({m: sys.modules[m] for m in sys.modules if m.startswith("lpict")})

        # Collect the last set-up's garbage now, not in the first timed
        # operations.
        gc.collect()
        gc.freeze()

        speed = HostSpeed()
        samples, by_class, faults = [], {}, {}
        attempted = failed = rounds = 0
        correct = warm != "wrong"
        started = time.perf_counter()
        # Whole rounds only; no round starts that would, at the mean round
        # time so far, end after the deadline.
        while attempted < MIN_OPS or (time.perf_counter() - started) * (rounds + 1) / rounds < seconds:
            rounds += 1
            for op in ops:
                attempted += 1
                if tracer:
                    tracer.op = attempted
                speed.mark()
                elapsed, outcome = attempt(op)
                samples.append(elapsed)
                by_class.setdefault(op.name, []).append(elapsed)
                if outcome != "ok":
                    failed += 1
                    key = op.fault if outcome == "fault" else f"WRONG ANSWER: {op.name}"
                    faults[key] = faults.get(key, 0) + 1
                    correct = correct and outcome == "fault"
        speed.probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {"setup_s": statistics.median(setups) / 1e9, **latency_metrics(samples), "peak_rss_mb": rss_mb}
    end_to_end = {
        "setup_s": statistics.median(t * s for t, s in zip(setups, setup_scales)) / 1e9,
        **latency_metrics([t * s for t, s in zip(samples, speed.scales)]),
        "peak_rss_mb": rss_mb,
    }

    lines = [f"workload {name} seed {seed}: {attempted} operations in {rounds} rounds, {failed} failed, correct={correct}"]
    for fault, count in sorted(faults.items()):
        lines.append(f"  failed {count} x {fault}")
    for label, times in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        lines.append(f"  class {label!r}: {len(times)} ops, unscaled median {statistics.median(times) / 1e6:.3f} ms")
    lines.append(f"host speed: {speed.probes} probes, median scale {statistics.median(speed.scales):.4f}")
    lines += [f"raw {k} {v} {END_TO_END_UNITS[k]}" for k, v in raw.items()]
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    else:
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in tracer.metrics(speed.scales).items()}
        lines.append(f"traced ops_per_s {end_to_end['ops_per_s']} 1/s")
        trace_file = OUT / f"trace-{name}-{seed}.jsonl"
        header = {"workload": name, "seed": seed, "ops": attempted, "traced_ops_per_s": end_to_end["ops_per_s"]}
        tracer.dump(trace_file, header)
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    for key, m in metrics.items():
        lines.append(f"metric {key} {m['value']} {m['unit']}")
    return lines, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own child process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("LPICT_COLOR", None)
    if not (ROOT / "src" / "lpict").is_dir():
        sys.stderr.write(f"no lpict sources under {ROOT / 'src'}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        sys.stderr.write(f"cannot import lpict from this checkout: {exc}\n")
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
