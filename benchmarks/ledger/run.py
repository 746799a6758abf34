"""The cost ledger: one command, every metric by name.

    python benchmarks/ledger/run.py [--workload W] [--seed S] [--seconds T]
                                    [--trace [0|1]] [--out F]

Without ``--workload`` all six workloads run, one child process at a time
(with ``--trace`` each is then re-run under the span recorder), every
metric is printed with unit, median, quartiles and sample count, and
``--out`` receives the whole result as JSON.  With ``--workload`` this is
the driver protocol of BENCHMARK.json: ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer metrics, and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, WORKLOADS, driver_end_to_end  # noqa: E402

#: A child that has not finished by then is killed with everything it started.
CHILD_TIMEOUT_S = 170


def default_seconds() -> float:
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10.0


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_env(work: Path) -> dict:
    """One BLAS thread (default threading gave 14x outlier windows on a GEMM
    loop here, one thread at most 1.5x) and private directories for every
    cache the program writes — never the repo's ``.repro_codegen/``,
    ``~/.cache/repro_tuned`` or the per-user obs snapshot directory."""
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["REPRO_CODEGEN_CACHE"] = str(work / "codegen")
    env["REPRO_TUNED_CACHE"] = str(work / "tuned")
    env["REPRO_OBS_DIR"] = str(work / "obs")
    env["LEDGER_GIT_COMMIT"] = git_commit()
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def run_child(args, workload: str, trace: bool, work: Path, trace_out: str = "") -> dict:
    """Run one workload in a child process and return its result."""
    result_path = work / f"{workload}-{int(trace)}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(trace)),
        "--rounds", str(args.rounds),
        "--work", str(work),
        "--result", str(result_path),
        "--trace-out", trace_out,
    ]
    proc = subprocess.Popen(cmd, env=child_env(work), cwd=str(ROOT), start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child leads its own process group: sweep jobs and parallel
        # workers it may have left behind go with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if code != 0:
        raise SystemExit(f"ledger: {workload} child failed (exit {code})")
    return json.loads(result_path.read_text())


def print_rows(title: str, rows: dict) -> None:
    print(f"== {title}")
    for name, row in rows.items():
        if "median" in row:
            print(
                f"  {name:38s} {row['median']:>16.6g} {row['unit']:8s}"
                f" q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} n {row['n']}"
            )
        else:
            print(f"  {name:38s} {row['value']:>16.6g} {row['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument(
        "--rounds", type=int, default=0,
        help="fixed round count instead of --seconds (selftest; not comparable)",
    )
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = default_seconds()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    driver = args.workload is not None
    names = [args.workload] if driver else list(WORKLOADS)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    document = {"workloads": {}}
    attempted = failed = 0
    try:
        for name in names:
            entry = document["workloads"].setdefault(name, {})
            passes = [True] if driver and args.trace else [False, True] if args.trace else [False]
            for trace in passes:
                trace_out = str(out_dir / f"{name}.trace.json") if trace else ""
                result = run_child(args, name, trace, work, trace_out)
                attempted += result["ops"]["attempted"]
                failed += result["ops"]["failed"]
                entry["traced" if trace else "timed"] = result
                tag = f"{name} (seed {args.seed}, {result['rounds']} rounds, {result['elapsed_s']:.1f} s)"
                if trace:
                    print_rows(f"{tag} per-layer", result["per_layer"])
                    print(f"  trace: {result.get('trace_file')}")
                else:
                    print_rows(f"{tag} end-to-end", result["end_to_end"])
                for failure in result["ops"]["failures"]:
                    print(f"  FAILED {failure}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if driver:
        result = next(iter(document["workloads"][args.workload].values()))
        if args.trace:
            summary["metrics"] = result["per_layer"]
        else:
            summary["metrics"] = {
                name: {
                    "value": result["end_to_end"][name]["median"],
                    "unit": END_TO_END[name][0],
                }
                for name in driver_end_to_end()
            }
    else:
        summary["metrics"] = {
            f"{workload}.{name}": {"value": row["median"], "unit": row["unit"]}
            for workload, entry in document["workloads"].items()
            for name, row in entry["timed"]["end_to_end"].items()
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
