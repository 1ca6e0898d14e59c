"""Benchmark of sfhpoly: end-to-end metrics per workload, layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; the sources are taken from `src/` next to
this directory, never from an installed copy.  A run builds the workload's
inputs from the seed, then makes whole passes over the workload's fixed
list of operations until S seconds have gone by (at least one pass, at
most MAX_PASSES), checks every output outside the timed region, and prints
one JSON object as the last line of standard output.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics of the traced pass of
median length.  --smoke runs every workload on tiny inputs in both modes.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import clock
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
# Bounds the diagrams pinned by the program's unbounded caches when a pass
# is very short.
MAX_PASSES = 40
MAX_REPORTED_FAILURES = 5


def load_program() -> SimpleNamespace:
    """Import sfhpoly from the checkout's src/, or stop with exit code 1."""
    src = ROOT / "src"
    if not (src / "sfhpoly" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sfhpoly sources under {src}")
    sys.path.insert(0, str(src))
    import sfhpoly
    from sfhpoly import builders, polytope, shdcli
    if Path(sfhpoly.__file__).resolve().parent != src / "sfhpoly":
        raise SystemExit(f"bench: sfhpoly imported from {sfhpoly.__file__}, "
                         f"not from {src}")
    return SimpleNamespace(builders=builders, polytope=polytope,
                           shdcli=shdcli)


class Failure:
    """An operation that raised; stands in for its output."""

    def __init__(self, text: str):
        self.text = text


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = 0

    def check(self, ops, outputs) -> None:
        """Check each output; a failed call or a wrong output is a failure."""
        for op, out in zip(ops, outputs):
            self.attempted += 1
            if isinstance(out, Failure):
                reason = "raised:\n" + out.text
            else:
                try:
                    reason = op.check(out)
                except Exception as ex:    # a malformed output
                    reason = f"check raised {ex!r}"
                if reason:
                    self.correct = False
            if reason:
                self.failed += 1
                if self.reported < MAX_REPORTED_FAILURES:
                    self.reported += 1
                    print(f"bench: {op.name}: {reason}", file=sys.stderr)


def run_pass(ops, sampler=None):
    """Wall time of the pass, (start, end, seconds) of each op, outputs.

    Time the sampler's kernel spent inside an operation is taken out.
    Before each operation, untimed, the garbage collector is run and every
    surviving object is frozen, so an operation's collections scan only
    what it allocates itself, as in a fresh process: without this, how
    long an operation took depended on what ran before it in the pass.
    """
    spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)
    timing, outputs = [], []
    elapsed = 0.0
    try:
        for op in ops:
            gc.collect()
            gc.freeze()
            t0, s0 = time.perf_counter(), spent()
            try:
                out = op.call()
            except Exception:              # counted as a failed operation
                out = Failure(traceback.format_exc())
            t1 = time.perf_counter()
            timing.append((t0, t1, t1 - t0 - (spent() - s0)))
            elapsed += timing[-1][2]
            outputs.append(out)
    finally:
        gc.unfreeze()
    return elapsed, timing, outputs


def build_workload(sfh, name: str, seed: int, smoke: bool, workdir: Path):
    """The set-up: build the inputs and write the first pass's files."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](sfh, seed, smoke, workdir)
    return wl, wl.prepare(0)


def setup_seconds(name: str, seed: int, smoke: bool,
                  workdir: Path) -> tuple[float, float]:
    """Process start to end of set-up: calibrated and wall medians.

    Each sample is a fresh process that sets up, prints the time, then
    times the calibration kernel on its own core; the sample is calibrated
    by that kernel time.
    """
    count = 1 if smoke else SETUP_SAMPLES
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-only", str(workdir)]
    calibrated, wall = [], []
    for _ in range(count):
        start = time.time()
        proc = subprocess.run(argv + (["--smoke"] if smoke else []),
                              capture_output=True, text=True, timeout=120,
                              check=True)
        end, kernel = map(float, proc.stdout.split()[-2:])
        wall.append(end - start)
        calibrated.append(wall[-1] * clock.REFERENCE_S / kernel)
    return statistics.median(calibrated), statistics.median(wall)


def measure(sfh, name, seed, seconds, smoke, workdir, tally):
    """End-to-end metrics, with tracing off, in calibrated seconds."""
    wl, ops = build_workload(sfh, name, seed, smoke, workdir / "ops")
    setup_s, wall_setup = setup_seconds(name, seed, smoke, workdir / "setup")
    sampler = clock.SpeedSampler()
    pass_s, p50, largest, wall = [], [], [], []
    start = time.perf_counter()
    for i in range(MAX_PASSES):
        if i:
            ops = wl.prepare(i)
        with sampler:
            elapsed, timing, outputs = run_pass(ops, sampler)
        if i == 0:      # before any check imports scipy
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.check(ops, outputs)
        times = [secs * sampler.factor(t0, t1) for t0, t1, secs in timing]
        wall.append(elapsed)
        pass_s.append(sum(times))
        p50.append(statistics.median(times))
        largest.append(times[[op.name for op in ops].index(wl.largest)])
        if time.perf_counter() - start >= seconds:
            break
    print(f"bench: {len(pass_s)} passes of {len(ops)} operations, largest "
          f"{wl.largest!r}; wall setup_s {wall_setup:.4f}, run_s "
          f"{statistics.median(wall):.4f}; calibration factor "
          f"{sampler.factor():.4f} from {len(sampler.samples)} kernel "
          f"samples", file=sys.stderr)
    return {"setup_s": (setup_s, "s"),
            "run_s": (statistics.median(pass_s), "s"),
            "op_p50_ms": (1000 * statistics.median(p50), "ms"),
            "largest_op_s": (statistics.median(largest), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def measure_traced(sfh, name, seed, seconds, smoke, workdir, tally):
    """Per-layer metrics: traced set-up, then untraced and traced passes."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl, ops = build_workload(sfh, name, seed, smoke, workdir / "ops")
    finally:
        tracer.uninstall()
    setup = tracer.drain()
    untraced, traced = [], []
    start = time.perf_counter()
    for i in range(0, MAX_PASSES, 2):
        if i:
            ops = wl.prepare(i)
        elapsed, _, outputs = run_pass(ops)
        tally.check(ops, outputs)
        untraced.append(elapsed)

        ops = wl.prepare(i + 1)
        tracer.install()
        try:
            elapsed, _, outputs = run_pass(ops)
        finally:
            tracer.uninstall()
        traced.append((elapsed, tracer.drain()))
        tally.check(ops, outputs)
        if time.perf_counter() - start >= seconds:
            break
    run_s, chosen = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    metrics = tracing.layer_metrics(tracer, setup, chosen, run_s,
                                    statistics.median(untraced))
    unattributed = metrics["trace.unattributed_s"][0]
    overhead = metrics["trace.overhead_s"][0]
    print(f"bench: {len(traced)} traced passes; self times leave "
          f"{unattributed:.4f} s unattributed, tracing overhead "
          f"{overhead:.4f} s", file=sys.stderr)
    for fn in sorted(tracer.absent):
        print(f"bench: absent from the program: {fn}", file=sys.stderr)
    write_trace(workdir / "trace.json", setup[0], chosen[0], tracer.absent)
    return metrics


def write_trace(path: Path, setup_spans, pass_spans, absent) -> None:
    """Spans as [name, start us, end us, parent], times from phase start."""
    def rows(spans):
        t0 = spans[0][1] if spans else 0.0
        return [[n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                for n, s, e, p in spans]
    path.write_text(json.dumps({"absent": sorted(absent),
                                "setup": rows(setup_spans),
                                "pass": rows(pass_spans)}))


def run(sfh, name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    measure_fn = measure_traced if trace else measure
    try:
        metrics = measure_fn(sfh, name, seed, seconds, smoke, workdir, tally)
    finally:
        shutil.rmtree(workdir / "ops", ignore_errors=True)
        shutil.rmtree(workdir / "setup", ignore_errors=True)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (workdir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def smoke(sfh) -> int:
    """Every workload on tiny inputs, both modes, against BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(sfh, name, 1, 0, trace, smoke=True)
            good = result["correct"] and result["failed"] == 0
            if spec:
                group = spec["per_layer" if trace else "end_to_end"]
                want = {m["name"]: m["unit"] for m in group}
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                if want != got:
                    good = False
                    print(f"bench: metrics differ from BENCHMARK.json: "
                          f"{sorted(set(want.items()) ^ set(got.items()))}",
                          file=sys.stderr)
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={int(trace)} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload, both modes")
    parser.add_argument("--setup-only", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sfh = load_program()
    if args.setup_only:
        build_workload(sfh, args.workload, args.seed, args.smoke,
                       Path(args.setup_only))
        print(repr(time.time()), repr(clock.kernel_seconds()))
        return 0
    if args.smoke:
        return smoke(sfh)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(sfh, args.workload, args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
