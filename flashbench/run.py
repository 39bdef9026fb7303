#!/usr/bin/env python3
"""flashbench: the repository benchmark (verify hot/cold, enroll, lot study).

    python3 flashbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script

1. validates BENCHMARK.json strictly (a missing key, a zero, a NaN, an
   unknown workload or metric exits 2 before anything is built or
   measured);
2. builds the harness and the flashmark library from source with CMake
   into .bench_build/flashbench (Release);
3. runs the harness (flashbench/main.cpp) for one workload, which checks
   every output and measures for --seconds;
4. prints the host block, every metric with its unit and sample count,
   and, as the last line, one JSON object:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
   --trace 0 reports the end_to_end metrics, --trace 1 the per_layer
   metrics and writes a Chrome trace to .bench_build/traces/.

Exit code 0 only when every correctness check passed.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "flashbench")
HARNESS = os.path.join(BUILD_DIR, "flashbench")
HARNESS_TIMEOUT_S = 170

WORKLOADS = ("verify_hot", "verify_cold", "enroll", "lot_study")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better). Produced by the traced run (harness ladder.cpp
# and the workload's own counters). The harness prints more figures than
# these (exact counts, signed residuals, the tracing overhead); only
# positive timings and ratios that vary from run to run are comparable
# metrics.
PER_LAYER = {
    "phys.erase_pulse_us": ("us", "lower"),
    "phys.read_majority_us": ("us", "lower"),
    "phys.program_words_us": ("us", "lower"),
    "phys.erase_full_us": ("us", "lower"),
    "phys.wear_us": ("us", "lower"),
    "flash.erase_segment_us": ("us", "lower"),
    "flash.program_block_us": ("us", "lower"),
    "flash.partial_erase_us": ("us", "lower"),
    "flash.read_us": ("us", "lower"),
    "core.extract_us": ("us", "lower"),
    "core.judge_us": ("us", "lower"),
    "core.verify_us": ("us", "lower"),
    "core.extract_self_frac": ("ratio", "lower"),
    "core.imprint_batchwear_ms": ("ms", "lower"),
    "store.pin_hit_us": ("us", "lower"),
    "store.pin_miss_us": ("us", "lower"),
    "store.flush_us": ("us", "lower"),
    "serve.ping_rtt_us": ("us", "lower"),
    "serve.verify_rtt_us": ("us", "lower"),
    "gen.late_p99_ms": ("ms", "lower"),
    "session.enroll_ms": ("ms", "lower"),
    "session.imprint_ms": ("ms", "lower"),
    "lot.die_ms": ("ms", "lower"),
    "lot.parallel_eff": ("ratio", "higher"),
}


class ConfigError(Exception):
    pass


def _reject_constant(name):
    raise ConfigError("non-finite number %s" % name)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f, parse_constant=_reject_constant)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise ConfigError("%s is not valid JSON: %s" % (path, e))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _exact_keys(obj, keys, where):
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % where)
    missing = sorted(set(keys) - set(obj))
    extra = sorted(set(obj) - set(keys))
    if missing:
        raise ConfigError("%s: missing key(s) %s" % (where, ", ".join(missing)))
    if extra:
        raise ConfigError("%s: unknown key(s) %s" % (where, ", ".join(extra)))


def validate_benchmark(cfg):
    """Strict check of BENCHMARK.json; raises ConfigError."""
    _exact_keys(cfg, ("command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"), "BENCHMARK.json")
    cmd = cfg["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and c for c in cmd)):
        raise ConfigError("command must be a list of 1..32 strings")
    paths = cfg["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and p for p in paths)):
        raise ConfigError("paths must be a list of 1..16 directories")
    rs = cfg["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and
            1 <= rs <= 60):
        raise ConfigError("run_seconds must be a whole number in 1..60")

    names = set()

    def unique(name, where):
        if not isinstance(name, str) or not name:
            raise ConfigError("%s: name must be a non-empty string" % where)
        if name in names:
            raise ConfigError("%s: name %r used twice" % (where, name))
        names.add(name)

    wl = cfg["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        raise ConfigError("workloads must list 2..8 workloads")
    for w in wl:
        _exact_keys(w, ("name", "why"), "workload")
        unique(w["name"], "workload")
        if w["name"] not in WORKLOADS:
            raise ConfigError("unknown workload %r" % w["name"])
        if not isinstance(w["why"], str) or not w["why"].strip():
            raise ConfigError("workload %r: empty why" % w["name"])

    for section, known, keys in (
            ("end_to_end", END_TO_END, ("name", "unit", "better", "bound")),
            ("per_layer", PER_LAYER, ("name", "unit", "better"))):
        ms = cfg[section]
        if not (isinstance(ms, list) and len(ms) >= 1):
            raise ConfigError("%s must list at least one metric" % section)
        for m in ms:
            _exact_keys(m, keys, section + " metric")
            unique(m["name"], section)
            if m["name"] not in known:
                raise ConfigError("unknown %s metric %r" % (section, m["name"]))
            unit, better = known[m["name"]]
            if m["unit"] != unit or m["better"] != better:
                raise ConfigError("%s metric %r must be unit %r, better %r" %
                                  (section, m["name"], unit, better))
            if "bound" in keys:
                b = m["bound"]
                if not (_is_number(b) and 0 < b <= 0.25):
                    raise ConfigError("metric %r: bound must be in (0, 0.25]"
                                      % m["name"])
    if "setup_s" not in {m["name"] for m in cfg["end_to_end"]}:
        raise ConfigError("end_to_end must include setup_s")
    return cfg


def build():
    """Configure (once) and build the harness; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise ConfigError("no flashmark sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def self_times(trace_path):
    """Per span name: count, total and self wall time (ms) of 'X' spans.

    Self time is the span's duration minus the part covered by spans
    nested directly inside it on the same lane."""
    with open(trace_path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents", doc) if isinstance(doc, dict) else doc
    lanes = {}
    for e in events:
        if e.get("ph") == "X":
            lanes.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    table = {}
    for evs in lanes.values():
        evs.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
        stack = []  # [event, child_time]
        def close(entry):
            ev, child = entry
            row = table.setdefault(ev["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += ev.get("dur", 0) / 1e3
            row[2] += (ev.get("dur", 0) - child) / 1e3
        for e in evs:
            while stack and stack[-1][0]["ts"] + stack[-1][0].get("dur", 0) \
                    <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][1] += e.get("dur", 0)
            stack.append([e, 0.0])
        while stack:
            close(stack.pop())
    return table


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--toy", action="store_true",
                    help="shrink every workload (smoke test only)")
    args = ap.parse_args(argv)

    try:
        bench = validate_benchmark(load_json(os.path.join(ROOT,
                                                          "BENCHMARK.json")))
        if args.workload not in WORKLOADS:
            raise ConfigError("unknown workload %r" % args.workload)
        if not (args.seconds > 0 and math.isfinite(args.seconds)):
            raise ConfigError("--seconds must be > 0")
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        build()
    except ConfigError as e:
        print("flashbench: %s" % e, file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as e:
        print("flashbench: build failed: %s" % e, file=sys.stderr)
        return 2

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    run_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    out_path = os.path.join(ROOT, run_dir, "result.json")
    # One trace file per workload, overwritten by its next traced run, so
    # repeated runs do not pile up traces of tens of MB each.
    trace_path = os.path.join(ROOT, ".bench_build", "traces",
                              "%s.json" % args.workload)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(run_dir, "w"), "--out", out_path]
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    if args.toy:
        cmd.append("--toy")
    # The harness gets its own process group so a timeout also ends the lot
    # shard workers it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("flashbench: harness timed out", file=sys.stderr)
        rc = None
    try:
        with open(out_path) as f:
            res = json.load(f)
    except (OSError, ValueError):
        res = None
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    if res is None or rc not in (0, 1):
        print("flashbench: harness produced no result (exit %s)" % rc,
              file=sys.stderr)
        return 1

    errors = list(res["errors"])
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or not _is_number(got["value"]):
            errors.append("metric %s missing or not finite" % m["name"])
            continue
        metrics[m["name"]] = got
    attempted, failed = int(res["attempted"]), int(res["failed"])
    if attempted < 1:
        errors.append("no operation attempted")
    correct = not errors and rc == 0

    host = res["host"]
    print("flashbench %s  seed %d  %s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    print("host: %s | nproc %s | isa %s | kernel %s | %s %s" % (
        host["cpu"], host["nproc"], host["isa"], host["kernel_mode"],
        host["compiler"], host["build_type"]))
    for name in sorted(res["metrics"]):
        m = res["metrics"][name]
        print("  %-34s %16.6g %-6s n=%d" % (name, m["value"] if
                                            m["value"] is not None else
                                            float("nan"), m["unit"], m["n"]))
    print("  %-34s %16.6g %-6s n=%d" % (
        "fail_frac", failed / attempted if attempted else float("nan"),
        "ratio", attempted))
    if args.trace and os.path.isfile(trace_path):
        print("trace: %s" % os.path.relpath(trace_path, ROOT))
        print("  %-34s %8s %12s %12s" % ("span", "count", "total_ms",
                                         "self_ms"))
        table = self_times(trace_path)
        for name, (n, total, own) in sorted(table.items(),
                                            key=lambda kv: -kv[1][1]):
            print("  %-34s %8d %12.3f %12.3f" % (name, n, total, own))
    for e in errors:
        print("FAILED CHECK: %s" % e)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
