"""Benchmark of udestats: Monte Carlo, closed forms and the oracle.

Run from the repository root, with no installation step:

    python3 udebench/run.py --workload mc-sim --seed 1 --seconds 30 --trace 0

Workloads are `mc-sim`, `analytic` and `oracle-verify`.  Each run does a
fixed list of items built from the seed; `--seconds` only scales how many
copies of the list a run does (one per 30 s).  With
`--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of every
workload, from a traced replay of each workload's trace subset.  Each
run also writes a record under udebench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = {"mc-sim": "mcsim", "analytic": "analytic",
             "oracle-verify": "oraclewl"}
# Cold starts per run for setup_s, spread evenly through the item list.
COLD_STARTS = 9
# Seconds of --seconds per copy of a workload's item list.
LIST_SECONDS = 30


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "reference"),
                    help="setup: import udestats, build the inputs and exit "
                         "(the parent times this as one cold start); "
                         "reference: print the reference loop times")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_udestats():
    """udestats from this checkout's sources, never an installed copy."""
    if not (SRC / "udestats" / "__init__.py").is_file():
        sys.exit(f"error: no udestats sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import udestats
    import udestats.cli  # noqa: F401  (the CLI's import cost is setup)
    if Path(udestats.__file__).resolve().parent != SRC / "udestats":
        sys.exit(f"error: imported udestats from {udestats.__file__}")
    return udestats


def load_workload(name: str):
    return importlib.import_module(WORKLOADS[name])


def build(wl, args):
    repeats = max(1, round(args.seconds / LIST_SECONDS))
    return wl.build_items(args.seed, repeats)


def cold_start(args) -> float:
    """Seconds from a fresh interpreter to udestats imported and the
    workload's inputs built."""
    t0 = time.perf_counter()
    subprocess.run(probe_command(args, "setup"), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def probe_command(args, probe: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--probe", probe,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]


def reference_loops(args) -> dict[str, float]:
    """Times of a fixed pure-Python loop and a fixed numpy loop, taken in a
    child process so that they leave this process's peak memory alone.
    They gauge the machine's speed at the start and end of a run; they are
    a diagnostic, not a metric."""
    out = subprocess.run(probe_command(args, "reference"), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def _time_reference_loops() -> dict[str, float]:
    # Both loops work on more data than the 2 MB L2 cache, as the workloads
    # do, so they slow down with the machine's shared caches and memory.
    import numpy as np
    t0 = time.perf_counter()
    table = {i: i * 0.5 for i in range(300_000)}
    acc = sum(v for k, v in table.items() if k % 3)
    t1 = time.perf_counter()
    a = np.arange(1 << 22, dtype=np.uint64)
    for s in range(4):
        acc += int(np.bincount(np.bitwise_count(a ^ np.uint64(s)),
                               minlength=65)[0])
    t2 = time.perf_counter()
    return {"python_ms": (t1 - t0) * 1e3, "numpy_ms": (t2 - t1) * 1e3}


def timed_pass(wl, items, probe=None):
    """Run every item untraced; returns outputs (None where an item
    raised), per-item seconds and cold-start seconds."""
    probe_at = set()
    if probe is not None:
        probe_at = {round(j * len(items) / COLD_STARTS)
                    for j in range(COLD_STARTS)}
    outputs, seconds, setup = [], [], []
    for idx, item in enumerate(items):
        if idx in probe_at:
            setup.append(probe())
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception:
            out = None
            traceback.print_exc()
        seconds.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, seconds, setup


def traced_pass(wl, items, tr):
    replays = []
    for idx, item in enumerate(items):
        tr.begin_item(idx, item.kind)
        try:
            replays.append(wl.replay(item, tr))
        except Exception:
            replays.append(None)
            traceback.print_exc()
        finally:
            tr.end_item()
    total = sum(s[6] - s[5] for s in tr.spans if s[4] == "item")
    return replays, total


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def kind_medians(items, seconds) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for item, s in zip(items, seconds):
        by_kind.setdefault(item.kind, []).append(s * 1e3)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def end_to_end(wl, args, meta):
    items = build(wl, args)
    cold_start(args)   # untimed: bytecode compiled, files in page cache
    outputs, seconds, setup = timed_pass(wl, items, lambda: cold_start(args))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta["reference_end"] = reference_loops(args)
    ok = [s for s, o in zip(seconds, outputs) if o is not None]
    errors = wl.check(items, outputs, None, args.seed)
    meta["item_ms_median_by_kind"] = kind_medians(items, seconds)
    meta["setup_s_all"] = setup
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (len(ok) / sum(seconds), "1/s"),
        "item_p50_ms": (quantile(ok, 0.5) * 1e3, "ms"),
        "item_p90_ms": (quantile(ok, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return len(items), len(items) - len(ok), errors, metrics, None


def per_layer(args, meta):
    from common import Tracer
    attempted = failed = 0
    errors, metrics, spans = [], {}, {}
    for name in WORKLOADS:
        wl = load_workload(name)
        items = wl.trace_subset(build(wl, args))
        outputs, seconds, _ = timed_pass(wl, items)
        tr = Tracer()
        replays, traced_s = traced_pass(wl, items, tr)
        attempted += 2 * len(items)
        failed += sum(o is None for o in outputs + replays)
        errors += [f"{name}: {e}"
                   for e in wl.check(items, outputs, replays, args.seed)]
        metrics.update(wl.layer_metrics(tr))
        metrics[f"bench.{name}.untraced_items_per_s"] = (
            len(items) / sum(seconds), "1/s")
        metrics[f"bench.{name}.traced_items_per_s"] = (
            len(items) / traced_s, "1/s")
        spans[name] = tr.records()
        meta[f"{name}.trace_items"] = len(items)
    meta["reference_end"] = reference_loops(args)
    return attempted, failed, errors, metrics, spans


def source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "udestats").glob("*.py")))


def declared_metrics(trace: int):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe == "reference":
        print(json.dumps(_time_reference_loops()))
        return 0
    udestats = import_udestats()
    sys.path.insert(0, str(HERE))
    wl = load_workload(args.workload)
    if args.probe == "setup":
        build(wl, args)
        return 0

    import numpy as np
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "udestats_version": udestats.__version__,
        "udestats_source_lines": source_lines(),
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        // (1 << 20),
        "python": platform.python_version(), "numpy": np.__version__,
        "reference_start": reference_loops(args),
    }
    if args.trace:
        attempted, failed, errors, metrics, spans = per_layer(args, meta)
    else:
        attempted, failed, errors, metrics, spans = end_to_end(wl, args, meta)

    want = declared_metrics(args.trace)
    if want is not None and want != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ want)} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{meta['started'].replace(':', '')}-{args.workload}"
            f"-seed{args.seed}-trace{args.trace}")
    record = dict(meta, result=result, check_errors=errors)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(f"reference loops: start {meta['reference_start']}, "
          f"end {meta['reference_end']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
