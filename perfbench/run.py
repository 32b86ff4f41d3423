#!/usr/bin/env python3
"""End-to-end benchmark of the GridFTP virtual-circuit reproduction.

    python3 perfbench/run.py --workload <paper-repro|vc-contention|log-analysis>
        --seed <n> --seconds <s> --trace <0|1>
        [--size full|tiny] [--expected <dir>] [--record]

Run from the repository root. The script builds `gvc`, `repro` and the
traced harness (`perfbench/`, its own cargo package) into
$CARGO_TARGET_DIR (default `.bench_build`), prepares the workload's
inputs from the seed, then:

* `--trace 0` times untraced passes of the user-facing binaries for
  `--seconds` seconds and reports the end-to-end metrics (medians over
  passes);
* `--trace 1` runs one untraced pass, then the traced harness at least
  twice, and reports the per-layer metrics plus `trace_overhead_frac`.

Every output is checked. Progress goes to stderr; stdout carries a
`host: {...}` fingerprint line and, last, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--record` rewrites the
expected outputs of the default seed instead of measuring. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_REL = Path(".bench_work")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORKLOADS = ("paper-repro", "vc-contention", "log-analysis")


class Fail(Exception):
    """The benchmark cannot produce a result (build or set-up broke)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def median(xs):
    return statistics.median(xs)


class Proc:
    """One finished child process with its resource usage."""

    def __init__(self, wall, cpu, rss_mb, code, out):
        self.wall, self.cpu, self.rss_mb, self.code, self.out = wall, cpu, rss_mb, code, out

    def text(self):
        return (ROOT / self.out).read_text()

    def err_text(self):
        return (ROOT / f"{self.out}.err").read_text()


def spawn(cmd, out, timeout):
    """Runs `cmd` from the repo root, stdout to `out` (relative to the
    root) and stderr to `out.err`; reaps it with wait4 so wall, CPU and
    peak RSS are the child's own. Returns (wall, cpu, peak RSS in KiB,
    exit code)."""
    holder = []
    timer = threading.Timer(timeout, lambda: holder and holder[0].kill())
    timer.start()
    with open(ROOT / out, "wb") as fo, open(ROOT / f"{out}.err", "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT)
        holder.append(p)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    timer.join()
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode


def serve_spawns():
    """The `--spawner` helper: one JSON request per stdin line, one reply
    per stdout line."""
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(spawn(req["cmd"], req["out"], req["timeout"])), flush=True)


class Spawner:
    """Starts the children from a helper process that stays small.

    Linux seeds a child's peak-RSS reading with its parent's peak RSS at
    exec, and this script's own footprint grows with the files it reads
    and hashes; the helper's stays at the interpreter's ~10 MB, below
    any measured program's peak."""

    def __init__(self):
        self.p = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--spawner"],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, cmd, out, timeout):
        self.p.stdin.write(json.dumps({"cmd": [str(c) for c in cmd], "out": str(out), "timeout": timeout}) + "\n")
        self.p.stdin.flush()
        reply = self.p.stdout.readline()
        if not reply:
            raise Fail("the spawner helper exited")
        return json.loads(reply)

    def close(self):
        self.p.stdin.close()
        self.p.stdout.close()
        self.p.wait()


SPAWNER = None


def run(cmd, out, timeout=CHILD_TIMEOUT_S):
    """Runs `cmd` (see `spawn`) through the spawner helper."""
    wall, cpu, rss_kib, code = SPAWNER.run(cmd, out, timeout)
    return Proc(wall, cpu, rss_kib / 1024.0, code, out)


def must(proc, what):
    if proc.code != 0:
        raise Fail(f"{what} exited {proc.code}: {proc.err_text()[-800:]}")
    return proc


class Pass:
    """One untraced pass: summed over its commands."""

    def __init__(self, procs, ok, transfers, records):
        self.wall = sum(p.wall for p in procs)
        self.cpu = sum(p.cpu for p in procs)
        self.rss_mb = max(p.rss_mb for p in procs)
        self.ok, self.transfers, self.records = ok, transfers, records


class Workload:
    """Shared plumbing: binaries, work directory, seed and expected outputs."""

    def __init__(self, name, args, bins):
        self.name, self.seed, self.size = name, args.seed, args.size
        self.gvc, self.repro, self.harness = bins / "gvc", bins / "repro", bins / "perfbench-trace"
        self.work = WORK_REL / name
        self.expected_path = Path(args.expected) / f"{name}-{args.size}.json"
        self.at_default = args.seed == DEFAULT_SEED
        self.expected = None
        if self.expected_path.exists():
            self.expected = json.loads(self.expected_path.read_text())

    def matches(self, key, value):
        """True when `value` is the recorded output `key`; outputs are
        recorded at the default seed only, so other seeds always match."""
        if not self.at_default:
            return True
        if self.expected is None:
            raise Fail(f"no expected outputs at {self.expected_path}; record them with --record")
        return self.expected.get(key) == value

    def harness_run(self, args):
        out = self.work / "traced"
        shutil.rmtree(ROOT / out, ignore_errors=True)
        p = must(run([self.harness, *args, "--out", out], self.work / "harness.json"), "harness")
        return json.loads(p.text().strip().splitlines()[-1]), out

    def finish(self):
        return True


class PaperRepro(Workload):
    """`repro --full all`. Its seeds are fixed in the program, so every
    seed checks against the same recorded digest."""

    def __init__(self, *a):
        super().__init__(*a)
        self.args = ["--full", "all"] if self.size == "full" else ["all"]
        self.at_default = True
        log("paper-repro: repro's seeds are fixed; --seed is ignored")

    def setup(self):
        """repro has no inputs to prepare; its set-up is a warm-up run at
        quick scale (same generators and experiments, small datasets),
        which faults in the binary and fills the page cache."""
        return must(run([self.repro, "all"], self.work / "warmup.txt"), "repro all").wall

    def prepare(self):
        p = must(run([self.repro, "--list"], self.work / "ids.txt"), "repro --list")
        self.ids = p.text().split()
        return self.matches("ids", self.ids)

    def run_pass(self):
        p = must(run([self.repro, *self.args], self.work / "repro.txt"), "repro")
        m = re.search(r"NCAR (\d+) / SLAC (\d+) / ORNL (\d+) / ANL (\d+) transfers", p.err_text())
        if not m:
            raise Fail("repro did not report its dataset sizes")
        transfers = sum(int(x) for x in m.groups())
        self.last = {"stdout_sha256": sha256(ROOT / p.out), "transfers": transfers}
        ok = all(self.matches(k, v) for k, v in self.last.items())
        return Pass([p], ok, transfers, transfers)

    def traced(self):
        flags = [] if self.size == "full" else ["--quick"]
        res, out = self.harness_run(["paper-repro", *flags])
        return res, self.matches("stdout_sha256", sha256(ROOT / out / "repro.txt"))

    def record(self):
        self.prepare()
        self.run_pass()
        return {"ids": self.ids, **self.last}


class VcContention(Workload):
    """`gvc scenario run` on the benchmark's own synthetic spec."""

    SESSIONS = {"full": 10000, "tiny": 300}
    SCENARIO = "vc-contention"

    def __init__(self, *a):
        super().__init__(*a)
        self.dir = self.work / "corpus"
        self.goldens = self.dir / "goldens" / self.SCENARIO

    def setup(self):
        """Writes the spec from the seed and records its serial
        (`--shards 1`) outputs as the goldens the timed `auto` passes are
        held against byte for byte."""
        shutil.rmtree(ROOT / self.dir, ignore_errors=True)
        t0 = time.perf_counter()
        (ROOT / self.dir).mkdir(parents=True)
        text = (BENCH / "vc-contention.scn.tmpl").read_text()
        text = text.replace("@SEED@", str(self.seed)).replace("@SESSIONS@", str(self.SESSIONS[self.size]))
        (ROOT / self.dir / f"{self.SCENARIO}.scn").write_text(text)
        cmd = [self.gvc, "scenario", "record", self.SCENARIO, "--dir", self.dir, "--shards", "1"]
        must(run(cmd, self.work / "record.txt"), "scenario record")
        return time.perf_counter() - t0

    def prepare(self):
        stats = (ROOT / self.goldens / "stats.txt").read_text()
        self.transfers = int(re.search(r"^transfers (\d+)$", stats, re.M).group(1))
        self.digests = {f"{f}_sha256": sha256(ROOT / self.goldens / f"{f}.{ext}")
                        for f, ext in (("report", "json"), ("stats", "txt"), ("timeline", "json"))}
        self.stats = stats
        ok = "\nopen_reservations 0\n" in stats
        return ok and all(self.matches(k, v) for k, v in self.digests.items())

    def run_pass(self):
        p = run([self.gvc, "scenario", "run", self.SCENARIO, "--dir", self.dir], self.work / "run.txt")
        ok = p.code == 0 and f"ok {self.SCENARIO}" in p.text()
        return Pass([p], ok, self.transfers, self.transfers)

    def traced(self):
        res, out = self.harness_run(["vc-contention", "--spec", self.dir / f"{self.SCENARIO}.scn"])
        same = all((ROOT / out / f).read_bytes() == (ROOT / self.goldens / f).read_bytes()
                   for f in ("report.json", "timeline.json"))
        return res, same and (ROOT / out / "open_reservations").read_text().strip() == "0"

    def record(self):
        self.setup()
        self.prepare()
        return {**self.digests, "stats": self.stats}


class LogAnalysis(Workload):
    """The paper's log -> sessions -> VC-suitability method on two logs
    on disk: `gvc sweep`, `suitability`, `sessions` and `anonymize`."""

    # (generator, scale, records kept). A log's length varies widely
    # with the seed (NCAR at scale 1 spans 36k-127k records over seeds
    # 1-6), so each log is generated at a scale that, on seeds 1-12,
    # always yields well over the cap, then cut to its first `cap`
    # records: every seed then does the same amount of analysis.
    LOGS = {
        "full": (("ncar", 2.0, 60_000), ("slac", 0.06, 90_000)),
        "tiny": (("ncar", 0.1, 4_000), ("slac", 0.01, 10_000)),
    }
    COMMANDS = ("sweep", "suitability", "sessions")

    def __init__(self, *a):
        super().__init__(*a)
        self.logs = self.work / "logs"
        self.first = None

    def log_path(self, name, ext="log"):
        return self.logs / f"{name}.{ext}"

    def setup(self):
        (ROOT / self.logs).mkdir(parents=True, exist_ok=True)
        wall, self.counts = 0.0, {}
        for name, scale, cap in self.LOGS[self.size]:
            path = ROOT / self.log_path(name)
            path.unlink(missing_ok=True)
            cmd = [self.gvc, "generate", name, self.log_path(name), "--scale", scale, "--seed", self.seed]
            p = must(run(cmd, self.work / f"generate-{name}.txt"), "gvc generate")
            t0 = time.perf_counter()
            lines = path.read_text().splitlines(keepends=True)
            header, records = lines[:1], lines[1:]
            if len(records) < cap:
                log(f"{name}: seed {self.seed} yields {len(records)} records, fewer than {cap}")
            path.write_text("".join(header + records[:cap]))
            self.counts[name] = min(cap, len(records))
            wall += p.wall + time.perf_counter() - t0
        return wall

    def prepare(self):
        self.log_digests = {f"{n}.log_sha256": sha256(ROOT / self.log_path(n)) for n in self.counts}
        return all(self.matches(k, v) for k, v in self.log_digests.items())

    def run_pass(self):
        procs, digests, ok = [], {}, True
        for name in self.counts:
            log_file = self.log_path(name)
            for cmd in self.COMMANDS:
                p = run([self.gvc, cmd, log_file], self.work / f"{cmd}-{name}.txt")
                procs.append(p)
                ok &= p.code == 0
                digests[f"{cmd}-{name}_sha256"] = sha256(ROOT / p.out)
            anon = self.log_path(name, "anon")
            (ROOT / anon).unlink(missing_ok=True)
            cmd = [self.gvc, "anonymize", log_file, anon, "--policy", "pseudonym"]
            p = run(cmd, self.work / f"anonymize-{name}.txt")
            procs.append(p)
            ok &= p.code == 0
            digests[f"anonymize-{name}_sha256"] = sha256(ROOT / p.out)
            digests[f"{name}.anon_sha256"] = sha256(ROOT / anon) if p.code == 0 else ""
        if self.first is None:
            self.first = digests
        ok &= digests == self.first and all(self.matches(k, v) for k, v in digests.items())
        n = sum(self.counts.values())
        return Pass(procs, ok, n, n * (len(self.COMMANDS) + 1))

    def finish(self):
        """Each anonymized log re-parses to its source's record count."""
        for name, n in self.counts.items():
            p = run([self.gvc, "summary", self.log_path(name, "anon")], self.work / f"summary-{name}.txt")
            if p.code != 0 or not p.text().startswith(f"{n} transfers\n"):
                return False
        return True

    def traced(self):
        scales = {name: scale for name, scale, _ in self.LOGS[self.size]}
        res, out = self.harness_run([
            "log-analysis", "--logs", self.logs, "--seed", self.seed,
            "--ncar-scale", scales["ncar"], "--slac-scale", scales["slac"],
        ])
        same = all((ROOT / out / f"{n}.anon").read_bytes() == (ROOT / self.log_path(n, "anon")).read_bytes()
                   for n in self.counts)
        return res, same

    def record(self):
        self.setup()
        self.prepare()
        self.run_pass()
        return {**self.log_digests, **self.first}


CLASSES = {"paper-repro": PaperRepro, "vc-contention": VcContention, "log-analysis": LogAnalysis}

# Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3


def build():
    if not (ROOT / "Cargo.toml").exists() or not (ROOT / "crates").is_dir():
        raise Fail(f"no repository source at {ROOT}")
    env = dict(os.environ)
    target = (ROOT / env.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "gvc-cli", "-p", "gvc-bench",
         "--bin", "gvc", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise Fail(f"build failed: {e}") from e
        if r.returncode != 0:
            raise Fail(f"build failed: {' '.join(cmd)}")
    return target / "release"


def untraced(wl, seconds, units):
    setups = [wl.setup() for _ in range(SETUP_REPS)]
    prep_ok = wl.prepare()
    passes, t0 = [], time.perf_counter()
    while True:
        passes.append(wl.run_pass())
        # Start no pass that would end past the measuring window.
        if time.perf_counter() - t0 + passes[-1].wall > seconds:
            break
    finish_ok = wl.finish()
    ok = [p.ok and prep_ok and finish_ok for p in passes]
    log(f"{wl.name}: {len(passes)} passes, walls {[round(p.wall, 3) for p in passes]}")
    values = {
        "setup_s": median(setups),
        "wall_s": median([p.wall for p in passes]),
        "cpu_s": median([p.cpu for p in passes]),
        "transfers_per_s": median([p.transfers / p.wall for p in passes]),
        "records_per_s": median([p.records / p.wall for p in passes]),
        # The peak over the run: which generator legs overlap, and so
        # the peak of a single pass, depends on thread scheduling.
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "check_pass_frac": sum(ok) / len(ok),
    }
    return all(ok), len(ok), len(ok) - sum(ok), {k: values[k] for k in units}


def traced(wl, seconds, units):
    wl.setup()
    prep_ok = wl.prepare()
    t0 = time.perf_counter()
    # Untraced passes for the first third of the window (the base of
    # trace_overhead_frac), traced passes for the rest: at least two, so
    # every run checks that the counts repeat.
    base = [wl.run_pass()]
    while time.perf_counter() - t0 + base[-1].wall <= seconds / 3:
        base.append(wl.run_pass())
    reps = []
    while len(reps) < 2 or time.perf_counter() - t0 + reps[-1][0]["traced_wall_s"] <= seconds:
        reps.append(wl.traced())
    finish_ok = wl.finish()
    # Everything but times and rates is a count or a ratio of counts,
    # and must repeat exactly.
    counts = [n for n, u in units.items() if u not in ("s", "us", "1/s", "frac")]
    first = reps[0][0]["metrics"]
    repeat_ok = all(r[0]["metrics"][n] == first[n] for r in reps for n in counts)
    if not repeat_ok:
        log("per-layer counts differ between traced passes")
    ok = [b.ok and prep_ok and finish_ok and repeat_ok for b in base]
    ok += [r[1] and prep_ok and repeat_ok for r in reps]
    values = {}
    for name in units:
        if name == "trace_overhead_frac":
            traced_wall = median([r[0]["traced_wall_s"] for r in reps])
            values[name] = traced_wall / median([b.wall for b in base]) - 1.0
        elif name in counts:
            values[name] = first[name]
        else:
            values[name] = median([r[0]["metrics"][name] for r in reps])
    return all(ok), len(ok), len(ok) - sum(ok), values


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--expected", default=str(BENCH / "expected"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    global SPAWNER
    SPAWNER = Spawner()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bins = build()
        work = ROOT / WORK_REL / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = CLASSES[args.workload](args.workload, args, bins)
        if args.record:
            if args.seed != DEFAULT_SEED:
                raise Fail(f"expected outputs are recorded at the default seed {DEFAULT_SEED}")
            wl.at_default = False  # nothing to hold the outputs against yet
            Path(args.expected).mkdir(parents=True, exist_ok=True)
            wl.expected_path.write_text(json.dumps(wl.record(), indent=2) + "\n")
            log(f"recorded {wl.expected_path}")
            return 0
        host = must(run([wl.harness, "fingerprint"], WORK_REL / args.workload / "host.json"), "fingerprint")
        host_line = host.text().strip()
        key = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[key]}
        measure = traced if args.trace else untraced
        correct, attempted, failed, values = measure(wl, args.seconds, units)
    except Fail as e:
        log(f"error: {e}")
        return 1
    finally:
        SPAWNER.close()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    record = {"host": json.loads(host_line), "workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace, "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"host: {host_line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--spawner"]:
        serve_spawns()
    else:
        sys.exit(main())
