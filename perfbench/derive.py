"""Derivations behind the benchmark's reported metrics.

Pure functions over the raw JSON perfbench_sim prints, kept apart from
run.py so test_derive.py can check them without building anything.
"""

import math
import re
import statistics

# The paper's percentages for the four HPCC kernels at their largest size, as
# quoted in EXPERIMENTS.md: freeze time avoided (the abstract's "about 98 %"
# for every kernel), page-fault requests prevented (Fig. 7) and NoPrefetch's
# runtime overhead over openMosix (Fig. 6).
PAPER = {
    "DGEMM": {"freeze_avoided": 98.0, "faults_prevented": 98.0, "noprefetch_overhead": 35.0},
    "STREAM": {"freeze_avoided": 98.0, "faults_prevented": 99.0, "noprefetch_overhead": 51.0},
    "RandomAccess": {"freeze_avoided": 98.0, "faults_prevented": 85.0, "noprefetch_overhead": 20.0},
    "FFT": {"freeze_avoided": 98.0, "faults_prevented": 97.0, "noprefetch_overhead": 41.0},
}
PAPER_CLAIMS = ("freeze_avoided", "faults_prevented", "noprefetch_overhead")
SMALL_WS_LABEL = "DGEMM-ws"

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Percentile rule: a tail percentile is reported only when at least this many
# samples lie beyond it.
MIN_BEYOND = 10


def valid_name(name):
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit):
    return bool(UNIT_RE.fullmatch(unit))


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile, refused unless `min_beyond` samples exceed it."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {max(n - rank, 0)} beyond it; need {min_beyond}")
    return ordered[rank - 1]


def turnaround_tail(samples):
    """turnaround_p99_s: the p99 when the rule allows it, else the maximum.

    A workload with fewer than 1,000 operations (paper_migration has 14)
    cannot have ten samples beyond its p99, so it reports its slowest one.
    """
    try:
        return tail_percentile(samples, 0.99)
    except ValueError:
        return max(samples)


def cells_by_label(cells):
    """{label: {scheme: cell}} from the flat cell list."""
    table = {}
    for cell in cells:
        table.setdefault(cell["label"], {})[cell["scheme"]] = cell
    return table


def prevented_pct(cell):
    """Fig. 7: share of home-node pages that arrived without a blocking request."""
    arrived = cell["pages_arrived"]
    if arrived == 0:
        raise ValueError(f"{cell['label']}/{cell['scheme']}: no pages arrived")
    return 100.0 * (arrived - cell["fault_requests"]) / arrived


def comparisons(cells):
    """Per label with all three schemes: the paper's three percentages."""
    out = {}
    for label, schemes in cells_by_label(cells).items():
        if not {"openMosix", "NoPrefetch", "AMPoM"} <= schemes.keys():
            continue
        om, nopf, am = schemes["openMosix"], schemes["NoPrefetch"], schemes["AMPoM"]
        out[label] = {
            "freeze_avoided": 100.0 * (1.0 - am["freeze_s"] / om["freeze_s"]),
            "faults_prevented": prevented_pct(am),
            "noprefetch_overhead": 100.0 * (nopf["total_s"] / om["total_s"] - 1.0),
            "ampom_runtime": 100.0 * am["total_s"] / om["total_s"],
            "speedup": om["total_s"] / am["total_s"],
        }
    if not out:
        raise ValueError("no label ran under openMosix, NoPrefetch and AMPoM")
    return out


def paper_err_pp(per_label):
    """Mean absolute gap, in percentage points, to the paper's percentages.

    Labels that are the paper's kernels are compared kernel by kernel (the
    12 values). Other labels (a cluster workload's job shapes) are compared,
    claim by claim, against the mean of the paper's four kernels.
    """
    gaps = []
    for label, got in per_label.items():
        for claim in PAPER_CLAIMS:
            if label in PAPER:
                ref = PAPER[label][claim]
            else:
                ref = statistics.fmean(PAPER[k][claim] for k in PAPER)
            gaps.append(abs(got[claim] - ref))
    return statistics.fmean(gaps)


def pooled_prevented_pct(execution):
    arrived = execution["pages_arrived"]
    if arrived == 0:
        raise ValueError("no AMPoM process received a page from its home node")
    return 100.0 * (arrived - execution["fault_requests"]) / arrived


def paper_metrics(workload, execution):
    """The five paper-shaped end-to-end metrics of one execution."""
    cells = execution["cells"]
    per_label = comparisons(cells)
    mean = lambda key: statistics.fmean(v[key] for v in per_label.values())
    if workload == "paper_migration":
        # Averaged over the four kernels, as the paper states them.
        prevented = mean("faults_prevented")
        ws = cells_by_label(cells)[SMALL_WS_LABEL]
        speedup = ws["openMosix"]["total_s"] / ws["AMPoM"]["total_s"]
    else:
        # Over the cluster run's own AMPoM processes; the scheme comparison
        # comes from the workload's job shapes (small hot sets in a larger
        # allocation, so their openMosix/AMPoM ratio is the small-WS claim).
        prevented = pooled_prevented_pct(execution)
        speedup = mean("speedup")
    return {
        "freeze_avoided_pct": mean("freeze_avoided"),
        "faults_prevented_pct": prevented,
        "runtime_vs_openmosix_pct": mean("ampom_runtime"),
        "small_ws_speedup": speedup,
        "paper_err_pp": paper_err_pp(per_label),
    }


def prefetch_host_s(cells):
    """Host seconds of the AMPoM cells minus those of their NoPrefetch twins."""
    total = 0.0
    for schemes in cells_by_label(cells).values():
        if "AMPoM" in schemes and "NoPrefetch" in schemes:
            total += schemes["AMPoM"]["host_s"] - schemes["NoPrefetch"]["host_s"]
    return total


def det_mismatches(det, expected):
    """Names of recorded deterministic outputs this execution did not reproduce."""
    if expected is None:
        return []
    missing = sorted(set(expected) - set(det))
    differing = sorted(k for k in expected if k in det and det[k] != expected[k])
    extra = sorted(set(det) - set(expected))
    return missing + differing + extra


def count_failures(execution, expected):
    """(attempted, failed, notes). Each simulated process is one operation;
    a recorded deterministic output that differs is one more failure."""
    attempted = execution["attempted"]
    mismatched = det_mismatches(execution["det"], expected)
    failed = min(attempted, execution["failed"] + len(mismatched))
    notes = list(execution["failures"]) + [f"deterministic output {k} differs" for k in mismatched]
    return attempted, failed, notes


def end_to_end(workload, raw):
    """{name: value} of every end-to-end metric from a timed (--trace 0) run."""
    ex = raw["execution"]
    metrics = {
        "wall_s": statistics.median(raw["wall_s"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mib"],
        "makespan_s": ex["makespan_s"],
        "turnaround_p50_s": statistics.median(ex["turnaround_s"]),
        "turnaround_p99_s": turnaround_tail(ex["turnaround_s"]),
    }
    metrics.update(paper_metrics(workload, ex))
    return metrics


def per_layer(raw):
    """{name: value} of every per-layer metric from a traced (--trace 1) run."""
    layers = dict(raw["layers"])
    events = layers["simcore.events"]
    analyses = layers["core.analyses"]
    layers["simcore.events_per_sec"] = events / raw["wall_untraced_s"]
    layers["workload.refs_per_event"] = layers["workload.refs"] / events if events else 0.0
    layers["core.zone_pages_per_analysis"] = (
        layers.pop("core.zone_pages") / analyses if analyses else 0.0)
    layers["core.prefetch_host_s"] = prefetch_host_s(raw["execution"]["cells"])
    layers["trace.overhead_pct"] = 100.0 * (raw["wall_traced_s"] / raw["wall_untraced_s"] - 1.0)
    return layers


def result_line(correct, attempted, failed, values, units):
    """The benchmark's last output line, as a dict."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
