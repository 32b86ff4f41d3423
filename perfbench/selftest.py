#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Every workload, at its tiny size, untraced and traced: exits 0,
   prints every metric BENCHMARK.json names with its unit, and passes
   its check.
2. Every workload against a perturbed copy of its expected outputs:
   `correct` turns false and `check_pass_frac` drops to 0.
3. A tree holding only BENCHMARK.json and perfbench/: the benchmark
   exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "selftest"
WORKLOADS = ("paper-repro", "vc-contention", "log-analysis")
# The expected output each perturbation corrupts.
PERTURB = {
    "paper-repro": "stdout_sha256",
    "vc-contention": "report_sha256",
    "log-analysis": "sweep-ncar_sha256",
}

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, root=ROOT, expected=None):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = bench(w, trace)
            tag = f"{w} trace={trace}"
            check(code == 0 and res is not None, f"{tag}: exits 0 with a result line")
            if res is None:
                print(err[-2000:], file=sys.stderr)
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{tag}: check passes")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v.get("unit") for n, v in res["metrics"].items()}
            check(got == want, f"{tag}: every {key} metric with its unit")
            check(all(isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()),
                  f"{tag}: numeric values")

    expected = SCRATCH / "expected"
    shutil.copytree(BENCH / "expected", expected)
    for w, key in PERTURB.items():
        path = expected / f"{w}-tiny.json"
        doc = json.loads(path.read_text())
        doc[key] = "0" * 64
        path.write_text(json.dumps(doc))
        code, res, _ = bench(w, 0, expected=expected)
        frac = res["metrics"]["check_pass_frac"]["value"] if res else None
        check(code == 0 and res is not None and not res["correct"] and frac == 0,
              f"{w}: a perturbed {key} drives check_pass_frac to 0")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = bench("paper-repro", 0, root=bare)
    check(code != 0 and res is None, "a tree without the repository fails without a result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
