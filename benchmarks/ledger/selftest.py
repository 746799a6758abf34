"""Self-test of the ledger: ``python benchmarks/ledger/selftest.py``.

1. The contract: names, counts and BENCHMARK.json agree with workloads.py.
2. The output check: one corrupted item is exactly one failed op.
3. A two-round pass over all six workloads, timed and traced (marked
   non-comparable), must report every metric named in workloads.py, load as
   a Chrome trace, and fail no op.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import END_TO_END, PER_LAYER, WORKLOADS, driver_end_to_end  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_contract() -> None:
    assert len(WORKLOADS) == 6, WORKLOADS.keys()
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    names = list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER)
    for name in names:
        assert NAME.match(name), name
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for row in doc["workloads"]:
        assert row["why"] == WORKLOADS[row["name"]][2] and len(row["why"]) <= 200
    assert [m["name"] for m in doc["end_to_end"]] == driver_end_to_end()
    for row in doc["end_to_end"]:
        unit, better, bound, _workloads, _driver = END_TO_END[row["name"]]
        assert (row["unit"], row["better"], row["bound"]) == (unit, better, bound), row
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
    for row in doc["per_layer"]:
        assert (row["unit"], row["better"]) == PER_LAYER[row["name"]], row
    listed = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(set(listed)) == len(listed)
    print("contract ok:", len(WORKLOADS), "workloads,", len(END_TO_END),
          "end-to-end,", len(PER_LAYER), "per-layer metrics")


def check_corruption() -> None:
    import numpy as np

    from harness import Ops, check_output, make_oracle
    from repro.apps import fir

    oracle = make_oracle("FIR", fir.build, seed=1)
    ops = Ops()
    check_output(ops, oracle, oracle.output, "FIR/clean")
    assert (ops.attempted, ops.failed) == (2, 0), ops
    corrupted = oracle.output.copy()
    corrupted[7] = np.nextafter(corrupted[7], np.inf)  # one ulp: only bit-exactness sees it
    check_output(ops, oracle, corrupted, "FIR/corrupted")
    assert (ops.attempted, ops.failed) == (4, 1), ops
    print("output check ok: one corrupted item is one failed op")


def check_pass() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "selftest.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--rounds", "2", "--trace", "--seed", "1",
             "--out", str(out)],
            check=True, stdout=subprocess.DEVNULL,
        )
        doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == list(WORKLOADS)
    for workload, entry in doc["workloads"].items():
        timed, traced = entry["timed"], entry["traced"]
        assert not timed["comparable"] and not traced["comparable"]
        expected = {n for n, row in END_TO_END.items() if workload in row[3]}
        assert set(timed["end_to_end"]) == expected, (workload, set(timed["end_to_end"]) ^ expected)
        for name in driver_end_to_end():
            assert timed["end_to_end"][name]["median"] > 0, (workload, name)
        assert set(traced["per_layer"]) == set(PER_LAYER), workload
        for result in (timed, traced):
            assert result["ops"]["attempted"] > 0 and result["ops"]["failed"] == 0, (
                workload, result["ops"]["failures"])
        trace = json.loads(Path(traced["trace_file"]).read_text())
        assert any(e.get("ph") == "X" for e in trace["traceEvents"]), workload
    print("two-round pass ok: every metric present on every workload, no failed op")


if __name__ == "__main__":
    check_contract()
    check_corruption()
    check_pass()
