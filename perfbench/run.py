"""manisweep benchmark: end-to-end CLI workloads and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.WORKLOADS`` in this process, as a
closed loop with one caller: each operation is one in-process call of
``manisweep.cli.main([...])`` that loads its scenario file afresh, as the
CLI does, and every call's outputs are checked.  Passes over the
workload's calls repeat until ``--seconds`` have elapsed (at least one).
Each call's time is its median over the run's passes; ``wall_s`` is their
sum and ``scenario_s_geomean`` the geometric mean, over scenarios, of the
time of each scenario's calls.  ``setup_s`` is the median of several
set-ups (this process and fresh interpreters), each timed from the first
line of this script.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates a pass where only ``catching_up`` is timed with
a pass where every layer is wrapped (see ``layers.py``), and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Artifact
sha256 sums, provenance and (traced) the spans go to ``perfbench/_results``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "_results"
#: set-ups per run: this process plus fresh interpreters; setup_s is their median
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import manisweep from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "manisweep" / "__init__.py").is_file():
        raise SystemExit(f"error: no manisweep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import manisweep

    if Path(manisweep.__file__).resolve().parent != SRC / "manisweep":
        raise SystemExit(f"error: imported manisweep from {manisweep.__file__}")


def setup(workload: str, seed: int, work: Path):
    """Generate and validate the workload's scenario files; return its calls."""
    import workloads
    from manisweep.scenario import dumps_document

    docs = workloads.make_documents(seed, workloads.scenario_names(workload))
    work.mkdir(parents=True)
    paths = {}
    for name, doc in docs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(dumps_document(doc))
    return workloads.calls_for(workload, paths, docs, work)


def child_setup_s(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    out = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(calls, tracer=None):
    """One timed pass over the calls; returns (seconds, exit code) per call."""
    from manisweep import cli

    results = []
    for call in calls:
        for path in call.artifacts.values():
            path.unlink(missing_ok=True)  # so a check never reads an earlier pass's file
        if tracer is not None:
            tracer.new_call()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except SystemExit as err:
                code = err.code
            except Exception as err:  # a raised error is a failed call, not a crash
                code = f"raised {err!r}"
            results.append((time.perf_counter() - t0, code))
    return results


class Checker:
    """Checks every call's outputs and that artifacts repeat byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.sha256 = {}

    def check_pass(self, calls, results):
        import workloads

        for call, (_, code) in zip(calls, results):
            self.attempted += 1
            try:
                problems = workloads.check(call, code)
                for path in call.artifacts.values():
                    digest = workloads.sha256(path)
                    if self.sha256.setdefault(path.name, digest) != digest:
                        problems.append(f"{path.name} differs from the first pass")
            except (OSError, ValueError, KeyError, TypeError) as err:
                problems = [f"unreadable output: {err!r}"]
            if problems:
                self.failures.append(f"{' '.join(call.argv[:3])}: {'; '.join(problems)}")


def measure(calls, seconds, checker):
    """Timed passes; also the process's peak RSS after the first, in MB."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = run_pass(calls)
        checker.check_pass(calls, results)
        passes.append([dt for dt, _ in results])
        if len(passes) == 1:
            # after a fixed amount of work, since memory grows with the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, peak_rss_mb


def end_to_end(calls, passes, peak_rss_mb, setups, checker):
    per_scenario = {}
    for i, call in enumerate(calls):
        median = statistics.median(p[i] for p in passes)
        per_scenario[call.scenario] = per_scenario.get(call.scenario, 0.0) + median
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_scenario.values()),
        "scenario_s_geomean": math.exp(
            statistics.fmean(math.log(t) for t in per_scenario.values())
        ),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - len(checker.failures) / checker.attempted,
    }


def measure_traced(calls, seconds, checker):
    """Alternate catching_up-only and fully traced passes; per-layer metrics."""
    import layers
    import workloads

    light, full = layers.Tracer(), layers.Tracer()
    light_walls, full_walls = [], []
    start = time.perf_counter()
    while not full_walls or time.perf_counter() - start < seconds:
        for tracer, walls, only in ((light, light_walls, {"sweep.catching_up"}),
                                    (full, full_walls, None)):
            tracer.install(only)
            try:
                results = run_pass(calls, tracer)
            finally:
                tracer.uninstall()
            checker.check_pass(calls, results)
            walls.append(sum(dt for dt, _ in results))
    metrics = layers.per_layer(full, len(full_walls))
    for name in workloads.SCENARIOS:
        metrics[f"sweep.catching_up.step_us.{name}"] = light.step_us(name)
    # means, so that per-pass self times plus the unaccounted share add up to wall_s
    metrics["trace.wall_s"] = statistics.fmean(full_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(light_walls)
    metrics["trace.unaccounted_share"] = 1.0 - full.total_self_s() / sum(full_walls)
    return metrics, full, len(full_walls)


def provenance(args, passes_or_rounds):
    import numpy
    import scipy

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes_or_rounds,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    work = BENCH / "_work" / str(os.getpid())
    try:
        calls = setup(args.workload, args.seed, work)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        units = declared_metrics(args.trace)
        checker = Checker()
        if args.trace:
            values, tracer, count = measure_traced(calls, args.seconds, checker)
            raw = {}
        else:
            setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
            passes, peak_rss_mb = measure(calls, args.seconds, checker)
            values = end_to_end(calls, passes, peak_rss_mb, setups, checker)
            count = len(passes)
            raw = {"setup_s": setups,
                   "call_s": {f"{c.argv[0]} {c.scenario}": [p[i] for p in passes]
                              for i, c in enumerate(calls)}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names metrics the run lacks: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = len(checker.failures)
    info = provenance(args, count)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": info,
        "metrics": metrics,
        "failed_ratio": failed / checker.attempted,
        "failures": checker.failures,
        "artifact_sha256": checker.sha256,
        "raw_times": raw,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl.gz")

    for line in checker.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"manisweep benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={count} sha={info['git_sha'][:12]}")
    for name, m in metrics.items():
        print(f"  {name:<52s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'failed_ratio':<52s} {failed / checker.attempted:>16.6f} ratio")
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
