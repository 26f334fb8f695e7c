"""The uwps benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run it from the repository root. It generates the workload's inputs from
the seed in a separate process, then calls `uwps.cli.main` in this process
for --seconds, checks every output, and prints a report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 a
separate traced run gives the per-layer ones. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array

import common

os.environ.update(common.PINNED_ENV)     # before numpy is first imported

import gates  # noqa: E402
import hostspeed  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

COLDSTART = common.ROOT / "perfbench" / "coldstart.py"
GENERATE = common.ROOT / "perfbench" / "generate.py"
COLD_SAMPLES = 12      # set-up samples per run, spread evenly over the run
TRACE_CHUNK_S = 0.5    # the traced run alternates traced and untraced chunks
CHILD_TIMEOUT_S = 120


def cold_start(argv) -> tuple[float, float]:
    """(seconds, slowdown) of one cold start of the program in a fresh interpreter.

    A reference cold start (hostspeed.cold_probe) runs just before and just
    after it, on the same CPU, and gives the host's slowdown.
    """
    probes = [hostspeed.cold_probe()]
    done = subprocess.run([sys.executable, str(COLDSTART), *argv],
                          env=common.child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    probes.append(hostspeed.cold_probe())
    if done.returncode != 0:
        raise gates.GateFailure(f"cold start {argv} exited {done.returncode}:\n"
                                f"{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]), hostspeed.cold_slowdown(probes)


def generate(workload, seed, work):
    if workload == "verify":     # `uwps verify` runs at its own DEFAULT_SEED
        return [{"argv": ["verify"]}]
    done = subprocess.run([sys.executable, str(GENERATE), "--workload", workload,
                           "--seed", str(seed), "--out", str(work)],
                          env=common.child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{done.stderr}")
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))["inputs"]


def ops_of(inp) -> int:
    """Operations in one call: its frames, or the properties of `uwps verify`."""
    return inp.get("frames", len(spec.VERIFY_PROPERTIES))


class Session:
    """Calls `uwps.cli.main` on the inputs in turn and checks each output.

    The first call on each input goes through the workload's gate; every
    later call on it must print the same bytes and exit with the same code.
    """

    def __init__(self, workload, inputs):
        from uwps import cli

        self.cli = cli      # looked up per call, so a tracer's patch applies
        self.inputs = inputs
        self.unit = spec.OPERATION[workload]
        self.gate = gates.Gate(workload)
        self.first_output: dict[int, int] = {}
        self.failed = 0
        self.calls = 0

    @property
    def covered(self) -> bool:
        return len(self.first_output) == len(self.inputs)

    def call(self) -> tuple[float, float, int]:
        """Run the next input; return (start, end, operations in it)."""
        index = self.calls % len(self.inputs)
        inp = self.inputs[index]
        self.calls += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(inp["argv"])
            end = time.perf_counter()
        except Exception:
            raise gates.GateFailure(f"{inp['argv']} raised:\n{traceback.format_exc()}") from None
        text = out.getvalue()
        digest = hash((code, text, err.getvalue()))
        if index not in self.first_output:
            self.first_output[index] = digest
            self.failed += self.gate(inp, code, text)
        elif self.first_output[index] != digest:
            raise gates.GateFailure(f"{inp['argv']}: output differs from the first call")
        return start, end, ops_of(inp)

    @property
    def attempted(self) -> int:
        return sum(ops_of(inp) for inp in self.inputs)


def _ms(values) -> str:
    return f"{statistics.median(values) * 1e3:.6g} ms"


def normalize(sampler, calls):
    """Per-operation seconds of each (start, end, ops) call, as timed and at
    the reference speed, and the host's slowdown during each call."""
    per_op_raw, per_op, slowdowns = [], [], []
    for start, end, n in calls:
        slow, sampling_s = sampler.window(start, end)
        per_op_raw.append((end - start) / n)
        per_op.append((end - start - sampling_s) / n / slow)
        slowdowns.append(slow)
    return per_op_raw, per_op, slowdowns


def run_untraced(session, seconds, cold_argv, report):
    """The end-to-end metrics, at the reference host speed (see hostspeed.py)."""
    cold_start(cold_argv)    # fills the bytecode and page caches; discarded
    session.call()           # warm-up: lazy set-up finishes before timing
    due = [(k + 0.5) * seconds / COLD_SAMPLES for k in range(COLD_SAMPLES)]
    cold = []                # (seconds, slowdown) of each cold start
    # (start, end, ops) of each call, flattened: a list of tuples would grow
    # the peak memory with the number of calls, that is with the host's speed
    timings = array("d")
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or not session.covered:
            if due and time.perf_counter() - t0 >= due[0]:
                due.pop(0)
                sampler.stop()
                cold.append(cold_start(cold_argv))
                sampler.start()
                continue
            timings.extend(session.call())
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls = [(start, end, int(n)) for start, end, n in
             zip(timings[0::3], timings[1::3], timings[2::3])]
    cold += [cold_start(cold_argv) for _ in due]

    per_op_raw, per_op, slowdowns = normalize(sampler, calls)
    ops = sum(n for _, _, n in calls)
    timed_s = sum(end - start for start, end, _ in calls)
    total_s = sum(t * n for t, (_, _, n) in zip(per_op, calls))
    setup_raw = [raw for raw, _ in cold]
    setup = [raw / slow for raw, slow in cold]

    report(f"calls timed = {len(calls)} ({ops} {session.unit}, {timed_s:.3f} s wall)")
    report(f"host slowdown against the reference: median {statistics.median(slowdowns):.4g} "
           f"over the calls ({len(sampler.costs)} samples), "
           f"{statistics.median(slow for _, slow in cold):.4g} around the cold starts")
    report(f"ms_per_op = {total_s / ops * 1e3:.6g} at reference speed, "
           f"{timed_s / ops * 1e3:.6g} as timed")
    if session.unit == "frames":
        report(f"frames_per_s = {ops / total_s:.6g} at reference speed, "
               f"{ops / timed_s:.6g} as timed")
    else:
        report(f"suite_s = {total_s / len(calls):.6g} at reference speed, "
               f"{timed_s / len(calls):.6g} as timed")
    report(f"op_latency_p50 = {_ms(per_op)} at reference speed, {_ms(per_op_raw)} as timed")
    for p in (50, 90, 95, 99):
        if stats.tail_reportable(len(per_op), p):
            report(f"op_latency_p{p}_ms = {stats.percentile(per_op, p) * 1e3:.6g} "
                   f"({stats.samples_beyond(len(per_op), p)} of {len(per_op)} beyond)")
    report(f"setup_s = {statistics.median(setup):.6g} at reference speed, "
           f"{statistics.median(setup_raw):.6g} as timed; samples as timed "
           f"{[round(s, 4) for s in setup_raw]}")
    return {
        "setup_s": statistics.median(setup),
        "ms_per_op": total_s / ops * 1e3,
        "op_latency_p50_ms": statistics.median(per_op) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def run_traced(session, seconds, workload, seed, report):
    from uwps import verify

    property_spans = {name: f"verify.{fn.__name__}" for name, fn in verify._CHECKS}
    if list(property_spans) != spec.VERIFY_PROPERTIES:
        raise tracing.TraceError(f"uwps.verify._CHECKS lists {list(property_spans)}, "
                                 f"expected {spec.VERIFY_PROPERTIES}")
    tracer = tracing.Tracer()
    session.call()
    calls = {False: [], True: []}
    traced = False
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < seconds or not session.covered
               or not all(calls.values())):
            if traced:
                # No host-speed samples inside the spans: a traced chunk takes
                # its slowdown from the samples of the untraced chunks around it.
                sampler.stop()
                tracer.install()
            try:
                chunk_start = time.perf_counter()
                while time.perf_counter() - chunk_start < TRACE_CHUNK_S:
                    calls[traced].append(session.call())
            finally:
                tracer.uninstall()
                sampler.start()
            traced = not traced
    finally:
        sampler.stop()

    out = common.WORK / "traces" / f"{workload}-seed{seed}.tsv.gz"
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out)
    report(f"spans = {len(tracer.name_ids)} written to {out.relative_to(common.ROOT)}")
    untraced_p50 = statistics.median(normalize(sampler, calls[False])[1])
    _, traced_per_op, slowdowns = normalize(sampler, calls[True])
    traced_p50 = statistics.median(traced_per_op)
    slowdown = statistics.median(slowdowns)
    metrics = tracing.layer_metrics(tracer, workload, sum(n for *_, n in calls[True]),
                                    len(calls[True]), property_spans, 1.0 / slowdown)
    metrics["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
    report(f"tracing overhead: {traced_p50 * 1e3:.6g} ms traced "
           f"against {untraced_p50 * 1e3:.6g} ms untraced per operation "
           f"at reference speed ({len(calls[True])} and {len(calls[False])} calls); "
           f"layer times divided by the host slowdown {slowdown:.4g}")
    return metrics


def environment(seed) -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ[k] for k in common.PINNED_ENV}, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "uwps" / "cli.py").is_file():
        print(f"error: no uwps sources under {common.SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the host-speed
    # samples and the work they normalize run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(common.SRC))
    work = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    lines = []
    try:
        inputs = generate(args.workload, args.seed, work)
        session = Session(args.workload, inputs)
        lines.append(f"workload = {args.workload}, seed = {args.seed}, "
                     f"seconds = {args.seconds:g}, trace = {args.trace}")
        lines.append(f"env = {json.dumps(environment(args.seed))}")
        if args.trace:
            metrics = run_traced(session, args.seconds, args.workload, args.seed,
                                 lines.append)
        else:
            metrics = run_untraced(session, args.seconds, inputs[0]["argv"], lines.append)
    except gates.GateFailure as exc:
        print("\n".join(lines))
        print(f"correctness gate failed: {exc}")
        print(json.dumps({"correct": False, "attempted": session.attempted,
                          "failed": session.failed, "metrics": {}}))
        return 1
    except tracing.TraceError as exc:
        print("\n".join(lines))
        print(f"error: broken trace: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines.append(f"operations = {session.attempted} {session.unit} attempted, "
                 f"{session.failed} failed (fail share "
                 f"{stats.fail_share(session.failed, session.attempted):.4g})")
    lines += [f"{name} = {value:.6g}" for name, value in session.gate.quality().items()]
    lines += [f"wrong fix: {line}" for line in session.gate.wrong]
    names = spec.PER_LAYER if args.trace else spec.END_TO_END
    result = {"correct": True, "attempted": session.attempted, "failed": session.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in names}}
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
