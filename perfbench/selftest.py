"""The benchmark's own test: exact counts repeat and seeds change the inputs.

Run from the root of a checkout (about two minutes):

    python3 perfbench/selftest.py

It asserts that
- two short traced runs of each workload at one seed report identical work
  counts, and every run passes its oracles;
- a different seed changes the generated cli-batch inputs, and the same
  seed reproduces them byte for byte;
- the metric names each mode prints are exactly those in BENCHMARK.json.
It is not named test_*.py, so the Tier-1 pytest run does not collect it.
"""

import json
import subprocess
import sys

import run
import workloads

ROOT = run.ROOT


def bench(workload, seed, trace, seconds=2):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    return result["metrics"]


def inputs(seed):
    """Every generated input file and command line of one cli-batch pass."""
    work = ROOT / ".perfbench_out" / "selftest" / f"cli-batch-seed{seed}"
    workload = workloads.prepare("cli-batch", seed, work)
    files = {p.relative_to(work).as_posix(): p.read_bytes()
             for p in sorted((work / "in").iterdir())}
    argv = [[a.replace(str(work), "") for a in c.argv] for c in workload.commands]
    return files, argv


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    assert inputs(0) == inputs(0), "one seed must reproduce the cli-batch inputs"
    files0, argv0 = inputs(0)
    files1, argv1 = inputs(1)
    assert files0.keys() == files1.keys() and files0 != files1, "seed must change input files"
    assert argv0 != argv1, "seed must change the cli-batch command lines"
    print("ok  cli-batch inputs follow the seed")

    for workload in workloads.WORKLOADS:
        first, second = bench(workload, 0, 1), bench(workload, 0, 1)
        assert set(first) == per_layer, sorted(set(first) ^ per_layer)
        counts = {name: first[name]["value"] for name in run.COUNTS}
        again = {name: second[name]["value"] for name in run.COUNTS}
        assert counts == again, f"{workload}: counts differ: {counts} != {again}"
        print(f"ok  {workload} counts repeat: {counts}")

    metrics = bench("cli-batch", 0, 0, seconds=1)
    assert set(metrics) == end_to_end, sorted(set(metrics) ^ end_to_end)
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    print("ok  end-to-end metric names match BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
