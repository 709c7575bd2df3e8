#!/usr/bin/env python3
"""The simulator's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench_sim from the
checkout's sources on first use (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs the workload in one process, derives the
metrics, checks every simulated output, and prints one line per metric
followed by the result as one JSON object on the last line.

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
the per-layer metrics from a separate traced execution. perfbench/METRICS.md
lists every metric. The raw measurements, host facts and spans of each run
are kept under the build directory's results/.

    python3 perfbench/run.py --workload NAME --seed N --record

re-records the deterministic outputs of NAME at seed N in
perfbench/expected.json (for a deliberate change of the simulated model).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import derive  # noqa: E402

WORKLOADS = ("paper_migration", "cluster_scale", "cluster_faults")
EXPECTED = HERE / "expected.json"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's deterministic outputs in expected.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def benchmark_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not derive.valid_name(metric["name"]) or not derive.valid_unit(metric["unit"]):
                fail(f"BENCHMARK.json: bad metric name or unit: {metric}", 1)
    return spec


def build(root):
    """Configure and build perfbench_sim once per checkout; returns its path."""
    if not (root / "src" / "driver" / "experiment.hpp").is_file():
        fail(f"no simulator sources under {root / 'src'}; run from a source checkout")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build_dir / "perfbench_sim"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build_dir), "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail), 1)
    return build_dir, binary


def run_binary(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{args.workload} exited {proc.returncode}:\n{proc.stderr.strip()}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def record(args, raw):
    expected = load_expected()
    expected.setdefault(args.workload, {})[str(args.seed)] = raw["execution"]["det"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(raw['execution']['det'])} outputs of {args.workload} "
          f"at seed {args.seed} in {EXPECTED.name}")


def chrome_trace(spans):
    """The benchmark's spans as Chrome trace_event JSON (chrome://tracing)."""
    return {"traceEvents": [
        {"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
         "ts": s["start_s"] * 1e6, "dur": (s["end_s"] - s["start_s"]) * 1e6,
         "args": {"parent": s["parent"]}} for s in spans]}


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    spec = benchmark_spec()
    build_dir, binary = build(root)
    raw = run_binary(binary, args)
    if args.record:
        record(args, raw)
        return 0

    expected = load_expected().get(args.workload, {}).get(str(args.seed))
    attempted, failed, notes = derive.count_failures(raw["execution"], expected)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    values = derive.per_layer(raw) if args.trace else derive.end_to_end(args.workload, raw)
    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"metrics not produced: {missing}", 1)
    result = derive.result_line(failed == 0, attempted, failed, values, units)

    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"raw": raw, "result": result, "failures": notes}, indent=1) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(chrome_trace(raw["spans"])) + "\n")

    host = raw["host"]
    print(f"host: nproc={host['nproc']} L2={host['l2_bytes']} B L3={host['l3_bytes']} B "
          f"compiler={host['compiler']} build={host['build_type']}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {failed} failed"
          + (" (outputs checked against the recorded seed)" if expected else ""))
    for note in notes[:10]:
        print(f"  failure: {note}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
