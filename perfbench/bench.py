"""Run one workload: set-up, check pass, timed loop, and the metrics.

The timed loop is a closed loop with one client: each operation starts when
the previous one has returned. It runs whole cycles of the workload's input
shapes until the requested seconds have passed, so every run of a workload
sees the same mix of shapes.
"""

import collections
import contextlib
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import fingerprint
import tracing
from workloads import CANARY_SEED, TRACE_TARGETS

SETUP_REPEATS = 5
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
ROOT_SPAN = "op"
FORWARD = "vectorfield.forward_batch"
# per-layer times reported on every workload; the self time of every other
# traced function is summed into op.other_modules.ms
SHARED_LAYERS = (FORWARD, "tasks.build_condition", "spectral.features_from_audio")


@dataclasses.dataclass
class OpRecord:
    seconds: float
    items: int = 0
    audio_seconds: float = 0.0
    traced: bool = False
    problems: list = dataclasses.field(default_factory=list)
    profile: dict | None = None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(blas.get("lib directory"))},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads(lib_dir):
    """Thread count the loaded OpenBLAS reports, else the variable we set."""
    for path in sorted(glob.glob(os.path.join(lib_dir or "", "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None


def timed_setup(cls, seed: int, work_dir, times: list):
    """Set the workload up once; appends the set-up time in seconds."""
    t0 = time.perf_counter()
    instance = cls(seed, work_dir)
    times.append(time.perf_counter() - t0)
    return instance


def run_canary(cls, work_dir, tracer=None):
    """Run the check pass: the workload's first `canary_ops` operations on
    fixed inputs. Returns (fingerprint, per-op problems, peak bytes).

    Untraced, each operation runs under tracemalloc and the peak is the
    largest allocation high-water mark of one operation. Traced, the
    wrappers are installed so the check also covers them.
    """
    canary = cls(CANARY_SEED, work_dir)
    prints, problems, peak = [], [], 0
    patches = tracer.patched(TRACE_TARGETS) if tracer else contextlib.nullcontext()
    if tracer is None:
        tracemalloc.start()
    try:
        with patches:
            for i in range(cls.canary_ops):
                if tracer is None:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                try:
                    result = canary.op(i)
                except Exception as exc:  # counted as a failed check op
                    problems.append([repr(exc)])
                    prints.append(None)
                    continue
                finally:
                    if tracer is not None:
                        tracer.clear()
                if tracer is None:
                    peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
                problems.append(canary.problems(result))
                prints.append(canary.fingerprint(result))
    finally:
        if tracer is None:
            tracemalloc.stop()
    return {"ops": prints, **canary.final_fingerprint()}, problems, peak


def load_reference(workload: str):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload)


def check_canary(workload: str, observed: dict, problems: list) -> list:
    """Failure messages per canary op: invariant breaks and fingerprint
    mismatches against the recorded reference."""
    failures = [list(p) for p in problems]
    recorded = load_reference(workload)
    if recorded is None:
        failures[-1].append(f"no recorded reference for {workload}")
        return failures
    for i, (r, o) in enumerate(zip(recorded["ops"], observed["ops"])):
        failures[i] += fingerprint.compare(r, o, f"check op {i}")
    if len(recorded["ops"]) != len(observed["ops"]):
        failures[-1].append("check pass length differs from the reference")
    rest_r = {k: v for k, v in recorded.items() if k != "ops"}
    rest_o = {k: v for k, v in observed.items() if k != "ops"}
    failures[-1] += fingerprint.compare(rest_r, rest_o, "check final")
    return failures


def timed_loop(workload, seconds: float, tracer=None, set_up=None) -> list:
    """Closed loop over whole cycles until `seconds` of cycles have passed.

    With a tracer, cycles alternate untraced and traced (at least one of
    each), so the run measures its own tracing overhead. With `set_up`, it
    is called between cycles SETUP_REPEATS - 1 times, spread evenly over
    the seconds, so the set-up times sample the same stretch of the
    machine's load as the operations; set-up time does not count toward
    `seconds`.
    """
    records, i, cycles, setups = [], 0, 0, 1 if set_up else SETUP_REPEATS
    start, paused = time.perf_counter(), 0.0
    while True:
        traced = tracer is not None and cycles % 2 == 1
        with tracer.patched(TRACE_TARGETS) if traced else contextlib.nullcontext():
            for _ in range(workload.cycle):
                records.append(_one_op(workload, i, tracer if traced else None))
                i += 1
        cycles += 1
        measured = time.perf_counter() - start - paused
        done = measured >= seconds and (tracer is None or cycles >= 2)
        while setups < SETUP_REPEATS and (done or measured >= seconds * setups / SETUP_REPEATS):
            t0 = time.perf_counter()
            set_up()
            paused += time.perf_counter() - t0
            setups += 1
        if done:
            return records


def _one_op(workload, i: int, tracer) -> OpRecord:
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = workload.op(i)
            record = OpRecord(seconds=time.perf_counter() - t0)
        else:
            with tracer.span(ROOT_SPAN) as root:
                result = workload.op(i)
            record = OpRecord(seconds=root[2] - root[1], traced=True,
                              profile=op_profile(tracer.spans))
    except Exception as exc:  # a failed operation is counted, not fatal
        if tracer is not None:
            tracer.clear()
        return OpRecord(seconds=math.nan, problems=[f"op {i}: {exc!r}"])
    if tracer is not None:
        tracer.clear()
    record.items, record.audio_seconds = result.items, result.audio_seconds
    record.problems = [f"op {i}: {p}" for p in workload.problems(result)]
    if record.profile is not None and record.profile["nfe"] != workload.expected_nfe:
        record.problems.append(f"op {i}: {record.profile['nfe']} field evaluations "
                               f"in the sampler, expected {workload.expected_nfe}")
    return record


def op_profile(spans) -> dict:
    """Self time (ms) and calls per span name, plus shape-derived counts,
    for the spans of one operation."""
    own = tracing.self_times(spans)
    ms, calls = collections.defaultdict(float), collections.Counter()
    frames = flops = attn = nfe = 0
    for index, (name, _, _, parent, attrs) in enumerate(spans):
        ms[name] += own[index] * 1e3
        calls[name] += 1
        if name == FORWARD:
            frames += attrs["frames"]
            flops += attrs["flops"]
            attn = max(attn, attrs["attn_bytes"])
            while parent is not None and spans[parent][0] != "sampler.sample_features":
                parent = spans[parent][3]
            nfe += parent is not None
    return {"ms": dict(ms), "calls": dict(calls), "frames": frames,
            "flops": flops, "attn_bytes": attn, "nfe": nfe}


def tail(values: list):
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it, but never below the median's rank."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(records: list, setup_times: list, peak_bytes: int, cycle: int) -> tuple:
    """Timings over the operations that completed. Throughput is the median
    over whole cycles of work done / busy time, so one slow operation
    moves it no more than it moves the median."""
    done = [r for r in records if not math.isnan(r.seconds)]
    ms = [r.seconds * 1e3 for r in done]
    tail_ms, tail_pct, beyond = tail(ms)
    cycles = [c for c in (records[k:k + cycle] for k in range(0, len(records), cycle))
              if not any(math.isnan(r.seconds) for r in c)] or [done]
    rate = lambda key: statistics.median(
        sum(getattr(r, key) for r in c) / sum(r.seconds for r in c) for c in cycles)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "items_per_s": (rate("items"), "1/s"),
        "audio_s_per_s": (rate("audio_seconds"), "s/s"),
        "peak_mem_mib": (peak_bytes / 2 ** 20, "MiB"),
    }
    notes = {"ops_timed": len(ms), "op_ms": [round(v, 3) for v in ms],
             "tail_percentile": round(tail_pct, 1),
             "tail_samples_beyond": beyond, "setup_s_samples": setup_times}
    return metrics, notes


def per_layer(records: list, cycle: int) -> tuple:
    """Per-operation layer metrics from the traced ops.

    Times are means over every traced op. Counts come from the first traced
    cycle; they depend only on input shapes, so every cycle must repeat
    them, and a cycle that does not is reported.
    """
    traced = [r for r in records if r.traced]
    n = len(traced)
    names = sorted({name for r in traced for name in r.profile["ms"]})
    self_ms = {name: sum(r.profile["ms"].get(name, 0.0) for r in traced) / n
               for name in names}
    first = traced[:cycle]
    count = lambda key: sum(r.profile[key] for r in first) / cycle
    calls = lambda name: sum(r.profile["calls"].get(name, 0) for r in first) / cycle
    signature = lambda rs: [(r.profile["calls"], r.profile["frames"], r.profile["flops"],
                             r.profile["attn_bytes"], r.profile["nfe"]) for r in rs]
    repeat = all(signature(traced[k:k + cycle]) == signature(first)
                 for k in range(0, n, cycle))
    traced_ms = sum(r.seconds for r in traced) * 1e3 / n
    untraced = [r.seconds for r in records if not r.traced and not math.isnan(r.seconds)]
    untraced_ms = sum(untraced) * 1e3 / len(untraced) if untraced else None
    other = sum(v for k, v in self_ms.items() if k not in SHARED_LAYERS + (ROOT_SPAN,))
    metrics = {
        f"{FORWARD}.calls": (calls(FORWARD), "count"),
        f"{FORWARD}.frames": (count("frames"), "count"),
        f"{FORWARD}.attn_mib": (max(r.profile["attn_bytes"] for r in first) / 2 ** 20, "MiB"),
        f"{FORWARD}.gflop": (count("flops") / 1e9, "GFLOP"),
        f"{FORWARD}.ms": (self_ms.get(FORWARD, 0.0), "ms"),
        "vectorfield.backward.calls": (calls("vectorfield.backward"), "count"),
        "sampler.nfe": (count("nfe"), "count"),
        "spectral.features_from_audio.calls": (calls("spectral.features_from_audio"), "count"),
        "spectral.features_from_audio.ms": (self_ms.get("spectral.features_from_audio", 0.0), "ms"),
        "spectral.audio_from_features.calls": (calls("spectral.audio_from_features"), "count"),
        "tasks.build_condition.ms": (self_ms.get("tasks.build_condition", 0.0), "ms"),
        "op.other_modules.ms": (other, "ms"),
        "op.unattributed.ms": (self_ms[ROOT_SPAN], "ms"),
        "op.traced.ms": (traced_ms, "ms"),
    }
    notes = {
        "ops_traced": n, "ops_untraced": len(untraced),
        "counts_repeat_every_cycle": repeat,
        "self_ms_per_op": {k: v for k, v in self_ms.items() if k != ROOT_SPAN},
        "calls_per_op": {name: calls(name) for name in names if name != ROOT_SPAN},
        "unattributed_ms_per_op": self_ms[ROOT_SPAN],
        "traced_op_ms": traced_ms,
        "untraced_op_ms": untraced_ms,
        "tracing_overhead_ms": traced_ms - untraced_ms if untraced else None,
    }
    return metrics, notes


def run(workload_name: str, cls, seed: int, seconds: float, trace: bool,
        work_dir) -> dict:
    """One benchmark run; returns the result record (see run.py)."""
    setup_times = []
    instance = timed_setup(cls, seed, work_dir, setup_times)
    tracer = tracing.Tracer() if trace else None
    observed, problems, peak = run_canary(cls, work_dir, tracer)
    check_failures = check_canary(workload_name, observed, problems)
    set_up = None if trace else lambda: timed_setup(cls, seed, work_dir, setup_times)
    records = timed_loop(instance, seconds, tracer, set_up)
    if not any(r.traced == trace and not math.isnan(r.seconds) for r in records):
        raise RuntimeError("no operation completed: "
                           + "; ".join(m for r in records[:3] for m in r.problems))

    failures = [m for op in check_failures for m in op] + \
        [m for r in records for m in r.problems]
    failed = sum(1 for op in check_failures if op) + \
        sum(1 for r in records if r.problems)
    attempted = len(check_failures) + len(records)
    if trace:
        metrics, notes = per_layer(records, cls.cycle)
    else:
        metrics, notes = end_to_end(records, setup_times, peak, cls.cycle)
    notes.update(fail_rate=failed / attempted, check_ops=len(check_failures),
                 failures=failures[:20])
    if trace:
        notes["missing_trace_targets"] = sorted(tracer.missing)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes, "environment": environment(workload_name, seed)}


def print_result(result: dict, out=sys.stdout) -> None:
    """Readable lines, a detail line, then the one-line result last."""
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}", file=out)
    print(f"{'fail_rate':40s} {result['notes']['fail_rate']:14.6g} "
          f"({result['failed']} of {result['attempted']} operations)", file=out)
    print("detail " + json.dumps({"environment": result["environment"],
                                  "notes": result["notes"]}), file=out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}), file=out, flush=True)
