"""One workload in its own process: set-up, timed or traced run, result.

``run.py`` starts this with BLAS pinned to one thread and every cache the
program writes pointed into a private work directory.  The clock starts at
the first line, so ``setup_s`` carries the imports.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def environment(args) -> dict:
    """The noise discipline this run was taken under."""
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "gc": "gc.freeze() after warm-up; gc.collect() between rounds",
        "windows": "pinned periods, interleaved round-robin, sinks drained",
        "metrics_registry": os.environ.get("REPRO_METRICS", "1") != "0",
        "git_commit": os.environ.get("LEDGER_GIT_COMMIT", "unknown"),
        "seed": args.seed,
    }


def make_protocol(workload: str, seed: int, work_dir: str):
    from protocols import Chopped, Compile, Linear, Steady
    from workloads import WORKLOADS, apps_of

    kind = WORKLOADS[workload][0]
    apps = apps_of(workload)
    if kind == "steady":
        return Steady(apps, seed, with_ceilings=workload == "steady-kernel")
    if kind == "chopped":
        return Chopped(apps, seed)
    if kind == "linear":
        return Linear(apps, seed)
    return Compile(workload, apps, seed, work_dir, warm=workload == "compile-warm")


def end_to_end(proto, workload: str, imports, setups) -> dict:
    """Reduce a timed run's samples to the named end-to-end metrics, in
    calibrated seconds, with the raw median beside each timing."""
    from protocols import Compile
    from stats import geomean_of_medians, median, summarize
    from workloads import END_TO_END

    # In-process sweeps discard the first (it pays one-time class-level
    # caches); every fresh-process sweep is a sample.
    keep = slice(None) if isinstance(proto, Compile) or len(proto.job_sweeps) < 2 else slice(1, None)
    import_raw, import_cal = imports
    rows = {
        "items_per_s": geomean_of_medians(proto.samples["items_per_s"]),
        "call_p50_us": geomean_of_medians(proto.samples["call_us"]),
        "job_s": summarize(proto.job_sweeps[keep]),
        "setup_s": {
            key: import_cal + value
            for key, value in summarize([cal for _raw, cal in setups]).items()
        },
    }
    rows["setup_s"]["n"] = len(setups)
    rows["items_per_s"]["raw_median"] = geomean_of_medians(proto.raw["items_per_s"])["median"]
    rows["job_s"]["raw_median"] = median(proto.raw_job_sweeps[keep])
    rows["setup_s"]["raw_median"] = import_raw + median([raw for raw, _cal in setups])
    if isinstance(proto, Compile):
        rows["peak_rss_mb"] = summarize(proto.maxrss_mb)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows["peak_rss_mb"] = {"median": rss, "q1": rss, "q3": rss, "n": 1}
    if workload == "steady-kernel":
        rows["ceiling_ratio"] = geomean_of_medians(proto.samples["ceiling_ratio"])
    if workload == "linear-opt":
        rows["linear_speedup"] = geomean_of_medians(proto.samples["linear_speedup"])
    ops = proto.ops
    ratio = ops.failed / ops.attempted if ops.attempted else 1.0
    rows["failed_ops_ratio"] = {"median": ratio, "q1": ratio, "q3": ratio, "n": ops.attempted}
    return {
        name: dict(row, unit=END_TO_END[name][0])
        for name, row in rows.items()
        if workload in END_TO_END[name][3]
    }


def import_samples(args, own, extra: int = 2):
    """This process's imports plus ``extra`` fresh processes that only
    import: (raw, calibrated) medians, since one sample of a 0.3 s import is
    most of the noise in a short workload's ``setup_s``."""
    import subprocess

    from stats import median

    samples = [own]
    here = os.path.dirname(os.path.abspath(__file__))
    for index in range(extra):
        out = os.path.join(args.work, f"import-{index}.json")
        done = subprocess.run(
            [sys.executable, os.path.join(here, "job.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--import-only", "1", "--out", out],
            timeout=60,
        )
        if done.returncode == 0:
            with open(out) as fh:
                probe = json.load(fh)
            samples.append((probe["import_s"], probe["import_cal_s"]))
            os.unlink(out)
    return median([raw for raw, _ in samples]), median([cal for _, cal in samples])


def per_app(proto) -> dict:
    from stats import summarize

    return {
        metric: {app: summarize(values) for app, values in apps.items() if values}
        for metric, apps in proto.samples.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=0, help="fixed round count (selftest)")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    import repro  # noqa: F401
    from repro.runtime import Interpreter  # noqa: F401
    from workloads import PER_LAYER

    from calib import SPINS, Stopwatch

    imports = Stopwatch("interp").since(T0)
    from protocols import SETUP_REPEATS, Compile

    proto = make_protocol(args.workload, args.seed, args.work)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "comparable": not args.rounds,
        "env": environment(args),
    }
    result["env"]["calibration_nominal_s"] = {kind: row[1] for kind, row in SPINS.items()}
    try:
        if args.trace:
            from spans import SpanRecorder
            from tracepass import trace_compile, trace_in_process

            rec = SpanRecorder()
            with rec.span("workload"):
                if isinstance(proto, Compile):
                    values = trace_compile(proto, rec)
                else:
                    values = trace_in_process(proto, rec, imports[0])
            result["per_layer"] = {
                name: {"value": float(values[name]), "unit": PER_LAYER[name][0]}
                for name in PER_LAYER
            }
            result["self_time_s"] = rec.self_times()
            if args.trace_out:
                rec.write(args.trace_out)
                result["trace_file"] = args.trace_out
        else:
            repeats = 1 if args.rounds else SETUP_REPEATS
            imports = import_samples(args, imports, extra=repeats - 1)
            setups = [proto.setup() for _ in range(repeats)]
            proto.measure(args.seconds, args.rounds or None)
            result["end_to_end"] = end_to_end(proto, args.workload, imports, setups)
            result["per_app"] = per_app(proto)
            result["setup"] = {"import_s": imports, "repeats_s": setups}
    finally:
        proto.close()
    result["rounds"] = proto.rounds
    result["ops"] = {
        "attempted": proto.ops.attempted,
        "failed": proto.ops.failed,
        "failures": proto.ops.failures,
    }
    result["elapsed_s"] = time.perf_counter() - T0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
