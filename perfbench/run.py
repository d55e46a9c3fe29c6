"""Layered benchmark of the quasicover command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ham --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, times a fresh-interpreter
start-up, runs the request list in a closed loop in a fresh worker process
(see worker.py) for the given number of seconds, checks sampled output rows
against the brute-force oracle, and prints a human-readable report followed
by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from spans recorded around each layer's public
calls (see tracing.py).  Times are host-scaled: each latency is multiplied
by ``PROBE_REFERENCE_S / probe``, where the probe is a fixed integer DP
timed before, during and after the request (see hostprobe.py), so they
read as seconds on the reference host.  Raw wall times are reported beside
them.  A full report and, for traced runs, the span file go to
``.bench_out/``.

End-to-end metrics: ``pass_s`` sums, over the workload's request classes,
each class's median scaled latency across the run's passes; ``coverage_s``,
``covers_s`` and ``seeds_s`` sum the same medians over the coverage (and
enhanced), covers and seeds classes; ``setup_s`` is the median time of a
fresh interpreter importing ``quasicover.cli`` and serving one tiny
request; ``peak_rss_mib`` is the worker process's peak RSS.  Failed
requests (non-zero exit, oracle mismatch, or output differing between
passes) are counted in the result line's ``failed`` field and printed as
``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from hostprobe import PROBE_REFERENCE_S  # noqa: E402

#: Fresh interpreters started to time set-up; their median is reported.
SETUP_REPEATS = 9
#: Set-up is mostly imports (file reads, unmarshalling), which slow down
#: less than the pure-Python probe when the host is loaded: on the
#: reference host, set-up wall time grew as (probe time)^0.65 between quiet
#: and loaded periods.  Set-up times are scaled with that exponent.
SETUP_LOAD_ELASTICITY = 0.65
#: Passes a run always makes, whatever --seconds says; traced runs
#: alternate untraced and traced passes.
MIN_PASSES = 3
MIN_PASSES_TRACED = 4
#: A set-up child is stopped after this long, the worker when it overshoots
#: --seconds by WORKER_GRACE_S, so a run ends within 180 s at --seconds 30.
SETUP_TIMEOUT_S = 10
WORKER_GRACE_S = 90

# Timed inside the fresh interpreter, from before the import to after the
# request, so process creation and interpreter start-up are left out; the
# child prints its probe-free time and its mean probe time.
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from hostprobe import HostProbe
with HostProbe() as host:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    from quasicover.cli import main
    rc = main(["coverage", sys.argv[3]])
    elapsed = time.perf_counter() - start
sys.stderr.write(f"{elapsed - host.inside_s!r} {host.speed_s!r}\\n")
sys.exit(rc)
"""
SETUP_TEXT = "abaababaab"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def host_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha1()
    pkg = os.path.join(SRC, "quasicover")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "source_sha1": digest.hexdigest()}


def measure_setup(workdir: str) -> tuple[list[float], list[float], bool]:
    """Scaled and raw wall times of fresh `import quasicover.cli` + one tiny request."""
    from quasicover.oracle import brute_coverage
    from quasicover.textcore import Text

    path = os.path.join(workdir, "setup.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(SETUP_TEXT + "\n")
    t = Text.from_str(SETUP_TEXT)
    expected = "".join(f"{ell}\t{brute_coverage(t.prefix(ell), t, 'hamming', 0)}\n"
                       for ell in range(1, len(t) + 1))
    scaled, raw, ok = [], [], True
    for _ in range(SETUP_REPEATS):
        try:
            done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, HERE, SRC, path],
                                  capture_output=True, text=True, check=False,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            ok = False
            continue
        if done.returncode != 0 or done.stdout != expected:
            ok = False
            continue
        elapsed, speed = map(float, done.stderr.split())
        raw.append(elapsed)
        scaled.append(elapsed * (PROBE_REFERENCE_S / speed) ** SETUP_LOAD_ELASTICITY)
    return scaled, raw, ok


def make_plan(checks, workload: str, seed: int, workdir: str, outdir: str,
              seconds: int, trace: bool) -> tuple[dict, list[workloads.Request], dict]:
    requests = workloads.build(workload, seed, workdir)
    subjects = {}
    plan_requests = []
    for req in requests:
        subject = checks.Subject(req.check)
        subjects[req.name] = subject
        rng = random.Random(f"sample:{workload}:{seed}:{req.name}")
        plan_requests.append({"name": req.name, "argv": req.argv,
                              "sample_lines": subject.sample_lines(rng)})
    plan = {"src": SRC, "trace": trace, "seconds": seconds,
            "min_passes": MIN_PASSES_TRACED if trace else MIN_PASSES,
            "requests": plan_requests,
            "spans_path": os.path.join(outdir, f"spans-{workload}-seed{seed}.jsonl")}
    return plan, requests, subjects


def run_worker(plan: dict, workdir: str, seconds: int) -> dict | None:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               plan_path, result_path], stdout=subprocess.DEVNULL,
                              timeout=seconds + WORKER_GRACE_S, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None
    if done.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def verify(checks, plan: dict, subjects: dict, passes: list[dict]) -> tuple[int, int, dict]:
    """Failures per class: non-zero exit, output differing between repeats,
    or a sampled row the oracle rejects (which fails every repeat)."""
    attempted = failed = 0
    report = {}
    for req in plan["requests"]:
        name, subject = req["name"], subjects[req["name"]]
        recs = [p["records"][name] for p in passes]
        first = recs[0]
        rows = {int(i): row for i, row in first["rows"].items()}
        errors = []
        self_ok = True
        if first["rc"] == 0:
            missing = sorted(set(req["sample_lines"]) - set(rows))
            if missing:
                errors.append(f"sampled lines {missing} missing")
            errors += subject.check_rows(rows)
            self_ok = checks.self_test(subject, rows)
        bad = [r for r in recs if r["rc"] != 0 or r["digest"] != first["digest"]]
        n_failed = len(recs) if errors else len(bad)
        attempted += len(recs)
        failed += n_failed
        report[name] = {"errors": errors, "failed": n_failed, "self_test": self_ok,
                        "stderr": next((r["stderr"] for r in bad if r["stderr"]), "")}
    return attempted, failed, report


def med(values: list[float]) -> float:
    return statistics.median(values)


def class_medians(requests, passes) -> dict[str, dict]:
    out = {}
    for req in requests:
        recs = [p["records"][req.name] for p in passes]
        scaled = [r["raw_s"] * PROBE_REFERENCE_S / r["probe_s"] for r in recs]
        raw = [r["raw_s"] for r in recs]
        out[req.name] = {"group": req.group, "scaled_s": med(scaled), "raw_s": med(raw),
                         "samples": len(recs), "scaled_samples": scaled, "raw_samples": raw}
    return out


def end_to_end(requests, passes, setup_scaled, maxrss_kib) -> tuple[dict, dict]:
    classes = class_medians(requests, passes)

    def total(groups) -> float:
        return sum(c["scaled_s"] for c in classes.values() if c["group"] in groups)

    metrics = {
        "pass_s": (total({"coverage", "covers", "seeds", "gadget"}), "s"),
        "coverage_s": (total({"coverage"}), "s"),
        "covers_s": (total({"covers"}), "s"),
        "seeds_s": (total({"seeds"}), "s"),
        "setup_s": (med(setup_scaled), "s"),
        "peak_rss_mib": (maxrss_kib / 1024, "MiB"),
    }
    return metrics, classes


def per_layer(requests, passes) -> dict:
    import tracing

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, unit in tracing.UNITS.items():
        values = [p["layers"][name] for p in traced]
        pick = statistics.median_low if unit == "count" else med
        metrics[name] = (pick(values), unit)
    output = med([sum(r["bytes"] for r in p["records"].values()) for p in traced])
    metrics["cli.output_mib"] = (output / 2 ** 20, "MiB")
    probes = [r["probe_s"] for p in passes for r in p["records"].values()]
    metrics["host.probe_ms"] = (med(probes) * 1000, "ms")
    plain_classes = class_medians(requests, plain).values()
    metrics["wall.pass_s"] = (sum(c["raw_s"] for c in plain_classes), "s")
    scaled_traced = sum(c["scaled_s"] for c in class_medians(requests, traced).values())
    scaled_plain = sum(c["scaled_s"] for c in plain_classes)
    metrics["trace.overhead_frac"] = (scaled_traced / scaled_plain - 1, "frac")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if not os.path.isfile(os.path.join(SRC, "quasicover", "cli.py")):
        return fail(f"no quasicover sources under {SRC}")
    sys.path.insert(0, SRC)
    import quasicover
    if os.path.dirname(os.path.dirname(os.path.abspath(quasicover.__file__))) != SRC:
        return fail(f"imported quasicover from {quasicover.__file__}, not from {SRC}")

    trace = bool(args.trace)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        return _run(args, trace, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, trace: bool, workdir: str, outdir: str) -> int:
    import checks  # imports quasicover, so only once its sources are on the path

    info = host_info()
    phases = {}
    clock = time.monotonic()
    setup_scaled, setup_raw, setup_ok = measure_setup(workdir)
    if not setup_scaled:
        return fail("every set-up request failed")
    phases["setup"], clock = time.monotonic() - clock, time.monotonic()
    plan, requests, subjects = make_plan(checks, args.workload, args.seed, workdir,
                                         outdir, args.seconds, trace)
    phases["inputs"], clock = time.monotonic() - clock, time.monotonic()
    result = run_worker(plan, workdir, args.seconds)
    if result is None:
        return fail("worker process failed or timed out")
    phases["passes"], clock = time.monotonic() - clock, time.monotonic()
    passes = result["passes"]
    attempted, failed, report = verify(checks, plan, subjects, passes)
    phases["checks"] = time.monotonic() - clock
    self_tests_ok = all(r["self_test"] for r in report.values())
    correct = failed == 0 and setup_ok and self_tests_ok

    plain = [p for p in passes if not p["traced"]]
    e2e, classes = end_to_end(requests, plain, setup_scaled, result["maxrss_kib"])
    metrics = per_layer(requests, passes) if trace else e2e

    n_traced = sum(p["traced"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} trace {int(trace)} "
          f"passes {len(passes) - n_traced} untraced + {n_traced} traced; phases "
          + " ".join(f"{k} {v:.1f}s" for k, v in phases.items()))
    print("host " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{'class':28s} {'group':9s} {'scaled_s':>10s} {'raw_s':>10s} samples")
    for name, c in classes.items():
        print(f"{name:28s} {c['group']:9s} {c['scaled_s']:10.4f} {c['raw_s']:10.4f} "
              f"{c['samples']}")
    print(f"setup: median of {len(setup_scaled)} fresh interpreters, "
          f"raw {med(setup_raw):.4f}s, output ok: {setup_ok}")
    for name, (value, unit) in e2e.items():
        print(f"e2e {name} = {value:.6g} {unit}")
    print(f"e2e wall.pass_s = {sum(c['raw_s'] for c in classes.values()):.6g} s (raw)")
    print(f"e2e failed_frac = {failed / attempted:.6g} ({failed} of {attempted} requests)")
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}")
    for name, r in report.items():
        if r["errors"] or r["failed"] or not r["self_test"]:
            print(f"FAILED {name}: {r}", file=sys.stderr)

    full = {"workload": args.workload, "seed": args.seed, "trace": int(trace),
            "seconds": args.seconds, "host": info, "phases_s": phases,
            "passes": len(passes), "traced_passes": n_traced,
            "classes": classes, "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
            "checks": report, "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(outdir, f"report-{args.workload}-seed{args.seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": full["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
