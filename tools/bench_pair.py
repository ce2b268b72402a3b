"""Paired benchmark runs of two checkouts, with medians, wins and bounds.

Usage::

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --out BENCH.json [--first-seed S]

Runs the command of ``BENCHMARK.json`` (``perfbench/run.py``) with
``--trace 0`` once in each checkout per pair, on seeds ``S .. S+N-1``.
The parent runs first in even-numbered pairs and the change in odd ones,
so a drift in machine load does not favour one side.  Each run lasts the
file's ``run_seconds``, the same on both sides.

Every run's end-to-end metrics are printed as it finishes.  Then, per
metric: the median and quartiles of each side, how many pairs the change
wins, the relative change of the medians, the median and interquartile
range of the per-pair relative differences (change / parent - 1, pairs
with a zero parent value left out), whether the median gap exceeds the
parent's interquartile range, and whether the change stays within the
metric's bound (a relative worsening of the parent's median).  The paired
differences cancel machine load that both runs of a pair share, which the
unpaired medians do not.  A pair's
``artifact_sha256`` maps must be equal.  A side that is not a git
checkout is named by ``src_sha256``, a sha256 over the sorted paths and
bytes of its ``src`` files (``__pycache__`` left out).  Each side's
``src`` line count, as ``wc -l src/manisweep/*.py
src/manisweep/geometry/*.py`` gives it, is printed and kept as
``parent_src_lines`` and ``change_src_lines``, so a file records
"smaller" beside "faster".  Beside it, one short probe in each checkout
records whether that side's native kernels load on the implicit golden,
whether its native log map and tangent basis are on, and how many lines
the golden's emitted C has (``parent_native``, ``change_native``): without
a compiler, or with the log map off, the implicit calls run in Python and
time differently, and the
C's size sets the cold build time.  Each run also records ``cpus``, the usable CPU
count (``len(os.sched_getaffinity(0))``), and ``load1``, the 1-minute load
average, both read as the run starts: a parallel gain is only as large as
the CPUs it had.

Per CLI call of the workload (``certify halfline``, ...), each run's
median time over its passes (``raw_times.call_s`` of its result file) is
recorded, and the same medians, wins and paired relative differences are
printed and kept under ``calls``, so a change can be read per command and
scenario.

The summary goes under ``workloads.W`` of the ``--out`` JSON file; other
workloads already in the file are kept, so one file can hold both.  The
exit status is 1 when a bound is broken, a run fails an operation or a
pair's artifacts differ, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command, workload, seed, seconds) -> dict:
    """One benchmark run: its metric values, failed share, artifact sums and provenance,
    with the usable CPU count and the 1-minute load average at its start."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    cpus, load1 = len(os.sched_getaffinity(0)), os.getloadavg()[0]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads(
        (checkout / "perfbench" / "_results" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "call_s": {call: statistics.median(times)
                   for call, times in report["raw_times"]["call_s"].items()},
        "failed_ratio": report["failed_ratio"],
        "artifact_sha256": report["artifact_sha256"],
        "git_sha": report["provenance"]["git_sha"],
        "passes": report["provenance"]["passes"],
        "cpus": cpus,
        "load1": load1,
    }


def src_sha256(checkout: Path) -> str:
    """sha256 over the sorted ``src`` file paths and bytes of a checkout."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def src_lines(checkout: Path) -> int:
    """Newlines in ``src/manisweep/*.py`` and ``src/manisweep/geometry/*.py``, as ``wc -l``."""
    package = checkout / "src" / "manisweep"
    paths = [*package.glob("*.py"), *(package / "geometry").glob("*.py")]
    return sum(path.read_bytes().count(b"\n") for path in paths)


#: run in a checkout: whether the implicit golden's native kernels load, whether
#: their log map and tangent basis run natively (``Kernels.shoots`` and
#: ``Kernels.bases``; absent before they existed) and the line count of the C they
#: are built from (``translate``'s first item)
NATIVE_PROBE = """
import json
from manisweep.geometry import native
from manisweep.scenario import bundled_scenario
b = bundled_scenario("implicit_ellipse_cap").backend
blas = native.numpy_blas()
c = native.translate(b._kernel_src, None if blas is None else blas[0])
print(json.dumps({"kernels": b._native is not None,
                  "log_map": bool(getattr(b._native, "shoots", False)),
                  "basis": bool(getattr(b._native, "bases", False)),
                  "c_lines": None if c is None else c[0].count("\\n")}))
"""


def native_state(checkout: Path) -> dict:
    """``{"kernels": bool, "log_map": bool, "basis": bool, "c_lines": int or None}`` of
    ``NATIVE_PROBE`` in a checkout."""
    done = subprocess.run([sys.executable, "-c", NATIVE_PROBE], cwd=checkout, check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    return json.loads(done.stdout.strip().splitlines()[-1])


def _paired(sides, lower=True) -> dict:
    """Medians and quartiles of both sides, the change's wins and the per-pair relative differences."""
    p1, pm, p3 = statistics.quantiles(sides["parent"], n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(sides["change"], n=4, method="inclusive")
    wins = sum((c < p) if lower else (c > p) for p, c in zip(*sides.values()))
    rel = [c / p - 1.0 for p, c in zip(*sides.values()) if p]
    r1, rm, r3 = (statistics.quantiles(rel, n=4, method="inclusive") if len(rel) > 1
                  else (None, rel[0] if rel else None, None))
    return {
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "change_wins": wins,
        "pairs": len(sides["parent"]),
        "relative_change": (cm - pm) / pm if pm else 0.0,
        "paired_relative_median": rm,
        "paired_relative_iqr": None if r1 is None else r3 - r1,
    }


def summarize(runs, spec) -> dict:
    """Per declared metric: medians, quartiles, wins and the bound check."""
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        s = _paired({side: [r[side]["metrics"][name] for r in runs] for side in SIDES}, lower)
        worse = (s["change_median"] - s["parent_median"]) * (1 if lower else -1)
        out[name] = {
            "better": m["better"],
            "bound": m["bound"],
            **s,
            "gap_exceeds_parent_iqr": (abs(s["change_median"] - s["parent_median"])
                                       > s["parent_q3"] - s["parent_q1"]),
            "within_bound": worse <= m["bound"] * abs(s["parent_median"]),
        }
    return out


def summarize_calls(runs) -> dict:
    """Per CLI call of the workload: the medians over pairs of each run's median time."""
    calls = [c for c in runs[0]["parent"]["call_s"] if c in runs[0]["change"]["call_s"]]
    return {c: _paired({side: [r[side]["call_s"][c] for r in runs] for side in SIDES})
            for c in calls}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 to give quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], spec["command"], args.workload, seed, seconds)
            values = "  ".join(f"{n}={v:.4f}" for n, v in pair[side]["metrics"].items())
            print(f"seed {seed} {side:<6s} {values}  failed={pair[side]['failed_ratio']:.3f}"
                  f"  cpus={pair[side]['cpus']} load1={pair[side]['load1']:.2f}", flush=True)
        pair["artifact_sha256_equal"] = (
            pair["parent"]["artifact_sha256"] == pair["change"]["artifact_sha256"]
        )
        runs.append(pair)

    summary = summarize(runs, spec)
    same = sum(r["artifact_sha256_equal"] for r in runs)
    failed = sum(r[s]["failed_ratio"] > 0 for r in runs for s in SIDES)
    print(f"\n{args.workload}: {len(runs)} pairs, seeds {args.first_seed}.."
          f"{args.first_seed + len(runs) - 1}, {seconds:g} s per run")
    print(f"{'metric':<20s} {'parent median [q1, q3]':>29s} {'change median [q1, q3]':>30s}"
          f" {'rel':>8s} {'paired rel [IQR]':>18s} {'wins':>6s} {'>IQR':>5s} {'bound':>9s}")
    for name, s in summary.items():
        rm, iqr = s["paired_relative_median"], s["paired_relative_iqr"]
        paired = "n/a" if rm is None else f"{rm:+.1%} [{'n/a' if iqr is None else f'{iqr:.1%}'}]"
        print(f"{name:<20s} {s['parent_median']:>10.4f} [{s['parent_q1']:.4f}, "
              f"{s['parent_q3']:.4f}] {s['change_median']:>10.4f} [{s['change_q1']:.4f}, "
              f"{s['change_q3']:.4f}] {s['relative_change']:>+8.1%} {paired:>18s} "
              f"{s['change_wins']:>3d}/{s['pairs']:<2d} "
              f"{'yes' if s['gap_exceeds_parent_iqr'] else 'no':>5s} "
              f"{'ok' if s['within_bound'] else 'BROKEN':>9s}")
    calls = summarize_calls(runs)
    print(f"\n{'call':<36s} {'parent median':>14s} {'change median':>14s} {'paired rel [IQR]':>18s}"
          f" {'wins':>6s}")
    for call, s in calls.items():
        rm, iqr = s["paired_relative_median"], s["paired_relative_iqr"]
        paired = "n/a" if rm is None else f"{rm:+.1%} [{'n/a' if iqr is None else f'{iqr:.1%}'}]"
        print(f"{call:<36s} {s['parent_median']:>14.4f} {s['change_median']:>14.4f} "
              f"{paired:>18s} {s['change_wins']:>3d}/{s['pairs']:<2d}")
    lines = {side: src_lines(dirs[side]) for side in SIDES}
    natives = {side: native_state(dirs[side]) for side in SIDES}
    print(f"artifact_sha256 equal in {same}/{len(runs)} pairs; runs with a failed "
          f"operation: {failed}; src lines {lines['parent']} -> {lines['change']}; "
          f"golden C lines {natives['parent']['c_lines']} -> {natives['change']['c_lines']}")
    for side in SIDES:
        print(f"{side}: native kernels {'load' if natives[side]['kernels'] else 'do not load'}, "
              f"native log map {'on' if natives[side]['log_map'] else 'off'}, "
              f"native basis {'on' if natives[side]['basis'] else 'off'}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    names = {}
    for side in SIDES:
        names[f"{side}_git_sha"] = runs[0][side]["git_sha"]
        if names[f"{side}_git_sha"].startswith("unknown"):
            names[f"{side}_src_sha256"] = src_sha256(dirs[side])
    doc["workloads"][args.workload] = {
        "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        **names,
        **{f"{side}_src_lines": lines[side] for side in SIDES},
        **{f"{side}_native": natives[side] for side in SIDES},
        "artifact_sha256_equal_pairs": same,
        "runs_with_failures": failed,
        "summary": summary,
        "calls": calls,
        "runs": [
            {"seed": r["seed"], "first": r["first"],
             "artifact_sha256_equal": r["artifact_sha256_equal"],
             **{s: {"metrics": r[s]["metrics"], "call_s": r[s]["call_s"],
                    "failed_ratio": r[s]["failed_ratio"], "passes": r[s]["passes"],
                    "cpus": r[s]["cpus"], "load1": r[s]["load1"]}
                for s in SIDES}}
            for r in runs
        ],
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    ok = all(s["within_bound"] for s in summary.values()) and same == len(runs) and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
