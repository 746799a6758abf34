"""One compile sweep in a fresh Python process: every app from
``Pipeline(...)`` to first output.

The clock starts at this file's first line, so the program's imports are
inside ``job_s``.  The caller points ``REPRO_CODEGEN_CACHE`` at an empty
directory (``compile-cold``) or a populated one (``compile-warm``).  With
``--staged 1`` the same sweep runs stage by stage under the span recorder;
with ``--import-only 1`` the process stops after the imports (one more
sample of them for ``setup_s``).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--staged", type=int, default=0)
    parser.add_argument("--tag", default="0")
    parser.add_argument("--import-only", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import repro  # noqa: F401
    from repro.runtime import Interpreter  # noqa: F401
    from workloads import apps_of

    apps = apps_of(args.workload)
    from calib import Stopwatch

    watch = Stopwatch("interp")
    import_raw, import_cal = watch.since(T0)
    from harness import run_job
    from workloads import PROBE_CALLS

    result = {"import_s": import_raw, "import_cal_s": import_cal, "jobs": []}
    if args.import_only:
        pass  # an extra sample of the imports for setup_s
    elif args.staged:
        from layers import side_probes, staged_job
        from spans import SpanRecorder

        rec = SpanRecorder()
        for name, builder in apps.items():
            job_id = f"{name}#{args.tag}"
            counts, raw, cal = watch.time(staged_job, rec, job_id, builder, args.seed)
            rec.scales[job_id] = cal / raw
            counts["app"] = name
            result["jobs"].append(counts)
        for counts, (name, builder) in zip(result["jobs"], apps.items()):
            job_id = f"{name}#{args.tag}+side"
            probes, raw, cal = watch.time(side_probes, rec, job_id, builder, args.seed)
            rec.scales[job_id] = cal / raw
            counts.update(probes)
        result["spans"] = rec.spans
        result["scales"] = rec.scales
    else:
        raw_total, cal_total = import_raw, import_cal
        for name, builder in apps.items():
            job, raw, cal = watch.time(run_job, name, builder, args.seed, None, PROBE_CALLS // 2)
            job["scale"] = cal / raw
            result["jobs"].append(job)
            raw_total += job["job_s"]
            cal_total += job["job_s"] * job["scale"]
        # The sweep as its caller pays it (imports included), in raw and in
        # calibrated seconds; the spins and probe calls between jobs are not in it.
        result["raw_total_s"] = raw_total
        result["total_s"] = cal_total

    from repro.runtime.codegen import codegen_cache_stats
    from repro.runtime.plan import plan_cache_stats

    result["codegen_cache"] = dict(codegen_cache_stats)
    result["plan_cache"] = dict(plan_cache_stats)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
