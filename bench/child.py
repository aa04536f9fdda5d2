"""One measured process of the benchmark: import hvectors, run one
workload's CLI commands back to back, check every report, print a result.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``:

    python3 bench/child.py COMMANDS_JSON [TRACE_PATH RUN_ID]

``COMMANDS_JSON`` is a JSON list of argv lists (seed included).  With
``TRACE_PATH`` every layer function is wrapped in a span recorder, and the
spans, tagged with ``RUN_ID``, are appended to that file as JSON lines at
the end.  The result is one JSON object on stdout; the CLI's own output is
captured, so report emission is timed too.
"""
import time

import numpy  # noqa: F401  (part of set-up: hvectors.exact needs it)
import hvectors
import hvectors.cli

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from hvectors import cli, inverse_systems  # noqa: E402

PROBE_PERIOD_S = 0.1
SETUP_PROBES = 8

# Rank calls are classed by field characteristic, an input property, so the
# classes survive a merge of the rank engines.  Primes up to this bound have
# squared residues that fit a signed 64-bit word.
WORD_PRIME_MAX = 3_037_000_499

COUNT_KEYS = ("rows", "cells", "scalars", "rank")


def _rank_class(characteristic: int) -> str:
    if characteristic == 0:
        return "qq"
    return "word_prime" if characteristic <= WORD_PRIME_MAX else "big_prime"


def _measure_rank(args, result):
    matrix = args[0]
    name = "exact.rank." + _rank_class(matrix.field.characteristic)
    return name, {"rows": matrix.rows, "cells": matrix.rows * matrix.cols,
                  "rank": result}


def _measure_matrix(args, result):
    return None, {"rows": result.rows, "cells": result.rows * result.cols}


def _measure_scalars(args, result):
    return None, {"scalars": len(result)}


class Tracer:
    """In-memory span recorder: (id, parent id, name, start, end, counts)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span_name, counts = name, {}
            if measure is not None:
                renamed, counts = measure(args, result)
                span_name = renamed or name
            self.spans[span_id] = (span_id, parent, span_name, start, end,
                                   counts)
            return result
        return traced

    def install(self):
        """Wrap each layer function under the names its callers look it up
        by, and return the traced ``cli.main``."""
        layers = (
            (inverse_systems, "sample_scalars", "exact.sample_scalars",
             _measure_scalars),
            (inverse_systems, "rank", "exact.rank", _measure_rank),
            (inverse_systems, "contraction_matrix",
             "inverse_systems.contraction_matrix", _measure_matrix),
            (inverse_systems, "contraction_power",
             "inverse_systems.contraction_power", None),
            (inverse_systems, "linear_combination",
             "inverse_systems.linear_combination", None),
            (inverse_systems, "codim5_generators",
             "inverse_systems.codim5_generators", None),
        )
        for module, attr, name, measure in layers:
            setattr(module, attr, self.wrap(name, getattr(module, attr),
                                            measure))
        verify = self.wrap("inverse_systems.verify_construction",
                           inverse_systems.verify_construction)
        inverse_systems.verify_construction = verify
        cli.verify_construction = verify
        return self.wrap("cli.main", cli.main)

    def summary(self) -> dict:
        """Per span name: calls, self time, summed counts, largest matrix."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for span_id, _, name, start, end, counts in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[span_id]
            for key in COUNT_KEYS:
                if key in counts:
                    entry[key] = entry.get(key, 0) + counts[key]
            if "cells" in counts:
                entry["max_cells"] = max(entry.get("max_cells", 0),
                                         counts["cells"])
        return out

    def write(self, path: str, run_id: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, counts in self.spans:
                handle.write(json.dumps({
                    "run": run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, **counts,
                }, sort_keys=True) + "\n")


_SOURCE = tuple(range(997))
_GATHER = tuple(tuple((7 * j + k) % 997 for k in range(24)) for j in range(24))
_ROW = [i * 7919 for i in range(48)]
_LEAD = [i * 104729 for i in range(48)]
_BIG_PRIME = 2305843009213693951


def _calibration_kernel() -> float:
    """Seconds for a fixed ~1 ms mix of the kinds of work the program
    does: tuple gathers, big-integer row updates and small int64 numpy
    updates.  It is the benchmark's own code, so no change to the program
    moves it."""
    start = time.perf_counter()
    for _ in range(8):
        rows = [tuple(_SOURCE[k] for k in positions) for positions in _GATHER]
    row = _ROW
    for factor in range(3 ** 40, 3 ** 40 + 48):
        row = [(v - factor * w) % _BIG_PRIME for v, w in zip(row, _LEAD)]
    block = numpy.array(rows, dtype=numpy.int64)
    for _ in range(24):
        block = (block * 7 - numpy.outer(block[0], block[:, 0])) % 32003
    return time.perf_counter() - start


class SpeedProbe:
    """Runs the calibration kernel every ``period`` seconds of wall time
    (SIGALRM) while the measured work runs, so the probe sees the host
    speed that work saw.  Host contention on a shared machine changes that
    speed by up to 2x within seconds."""

    def __init__(self, period: float):
        self.period = period
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(_calibration_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _harmonic_mean(values) -> float:
    return len(values) / sum(1 / v for v in values)


def _check(code: int, text: str) -> list[dict]:
    """One entry per job (report): its digest and why it failed, if it did.

    A command that yields no reports counts as one failed job.
    """
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError):
        return [{"digest": None, "failure": f"exit {code}, no JSON report"}]
    if not reports:
        return [{"digest": None, "failure": f"exit {code}, empty report"}]
    jobs = []
    for report in reports:
        raw = json.dumps(report, sort_keys=True, separators=(",", ":"))
        target = inverse_systems.family_target(report["kind"],
                                               report["parameter"])
        failure = None
        if report["verdict"] != "match":
            failure = f"verdict {report['verdict']}"
        elif report["status"] != "ok":
            failure = f"status {report['status']}"
        elif tuple(report["best"]) != target.entries:
            failure = "best differs from family_target"
        elif code != 0:
            failure = f"exit code {code}"
        jobs.append({
            "digest": hashlib.sha256(raw.encode()).hexdigest(),
            "failure": failure,
            "job": f"{report['kind']} {report['parameter']} "
                   f"char {report['characteristic']}",
        })
    return jobs


def main() -> None:
    commands = json.loads(sys.argv[1])
    trace_path = sys.argv[2] if len(sys.argv) > 2 else None
    tracer = Tracer() if trace_path else None
    entry = tracer.install() if tracer else cli.main

    setup_probes = [_calibration_kernel() for _ in range(SETUP_PROBES)]
    outputs = []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_start = usage.ru_utime + usage.ru_stime
    start = time.perf_counter()
    with SpeedProbe(PROBE_PERIOD_S) as probe:
        for argv in commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = entry(argv + ["--format", "json"])
            outputs.append((code, buffer.getvalue()))
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    probe_s = sum(probe.samples)

    result = {
        "setup_done": SETUP_DONE,
        "module": hvectors.__file__,
        # Harmonic means: the work done is wall time times the mean speed,
        # and speed is 1 / kernel time.
        "setup_calibration_s": _harmonic_mean(setup_probes),
        "calibration_s": _harmonic_mean(probe.samples or setup_probes),
        "wall_s": wall - probe_s,
        "cpu_s": usage.ru_utime + usage.ru_stime - cpu_start - probe_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "report_bytes": sum(len(text.encode()) for _, text in outputs),
        "jobs": [job for code, text in outputs for job in _check(code, text)],
    }
    if tracer:
        result["layers"] = tracer.summary()
        tracer.write(trace_path, sys.argv[3])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
