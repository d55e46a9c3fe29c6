"""Closed-loop request runner, started by run.py in a fresh interpreter.

Usage: ``python3 perfbench/worker.py PLAN.json RESULT.json``

One caller, one thread: each request is sent through
``quasicover.cli.main(argv)`` only after the previous one returned.  A pass
runs every request class of the workload once, in plan order; passes repeat
until the plan's time budget is spent.  Each request runs under a
host-speed probe (hostprobe.py), and its stdout is streamed into a digest
plus the rows the plan asks to keep, so no output buffer sets the peak RSS
of this process, which run.py reports as the workload's memory.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback

from hostprobe import PROBE_REFERENCE_S, HostProbe


class Sink:
    """Text stream that hashes what it receives and keeps selected lines."""

    encoding = "utf-8"
    errors = "strict"

    def __init__(self, wanted: list[int]):
        self._hash = hashlib.sha1()
        self._wanted = iter(wanted)
        self._next = next(self._wanted, -1)
        self.nbytes = 0
        self.lines = 0
        self.rows: dict[int, str] = {}

    def write(self, s: str) -> int:
        data = s.encode()  # bytes have no encode(): click then treats us as text
        if not data:
            return 0
        self._hash.update(data)
        self.nbytes += len(data)
        if self.lines == self._next:
            self.rows[self.lines] = s.rstrip("\n")
            self._next = next(self._wanted, -1)
        self.lines += s.count("\n")
        return len(s)

    def flush(self) -> None:
        pass

    def isatty(self) -> bool:
        return False

    def digest(self) -> str:
        return self._hash.hexdigest()


class ErrSink(Sink):
    """Keeps the first few KiB of stderr for the failure report."""

    def __init__(self):
        super().__init__([])
        self.text = ""

    def write(self, s: str) -> int:
        if len(self.text) < 4096:
            self.text += s
        return len(s)


def run_request(main, argv: list[str], wanted: list[int], tracer=None) -> dict:
    """One request under a host probe; returns its record.

    ``raw_s`` excludes the time of the probes taken during the request.
    """
    gc.collect()
    out, err = Sink(wanted), ErrSink()
    saved = sys.stdout, sys.stderr
    with HostProbe() as host:
        sys.stdout, sys.stderr = out, err
        span = tracer.open("cli.request") if tracer is not None else None
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed request, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        sys.stdout, sys.stderr = saved
    if tracer is not None:
        tracer.probe_marks.extend(host.marks)
    return {"raw_s": elapsed - host.inside_s, "probe_s": host.speed_s,
            "probes": len(host.marks), "rc": rc, "digest": out.digest(),
            "bytes": out.nbytes, "lines": out.lines, "rows": out.rows,
            "stderr": err.text if rc else ""}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from quasicover import cli

    tracing = None
    if plan["trace"]:
        import tracing

    requests = plan["requests"]
    passes: list[dict] = []
    spans_out = []
    start = time.monotonic()
    request_id = 0
    while True:
        # Traced runs alternate untraced and traced passes, so one run
        # also measures the tracing overhead.
        traced = bool(tracing) and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        pass_start = time.monotonic()
        records = {}
        scale = {}
        try:
            for req in requests:
                if tracer is not None:
                    tracer.request = request_id
                rec = run_request(cli.main, req["argv"], req["sample_lines"], tracer)
                if passes:  # rows are checked from the first pass only
                    del rec["rows"]
                scale[request_id] = PROBE_REFERENCE_S / rec["probe_s"]
                request_id += 1
                records[req["name"]] = rec
        finally:
            if tracer is not None:
                tracer.uninstall()
        entry = {"traced": traced, "records": records}
        if tracer is not None:
            entry["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, scale,
                                                    tracer.probe_marks)
            spans_out.append(tracer.spans)
        passes.append(entry)
        elapsed = time.monotonic() - start
        last = time.monotonic() - pass_start
        if len(passes) >= plan["min_passes"] and elapsed + last > plan["seconds"]:
            break
    if spans_out:
        with open(plan["spans_path"], "w", encoding="utf-8") as fh:
            for i, spans in enumerate(spans_out):
                for name, s, e, parent, req in spans:
                    fh.write(json.dumps({"pass": 2 * i + 1, "name": name, "start": s,
                                         "end": e, "parent": parent, "request": req}) + "\n")
    result = {
        "passes": passes,
        "measured_s": time.monotonic() - start,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
