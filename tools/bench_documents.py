"""Write the artifacts of the benchmark's seeded scenario documents into one directory.

Usage::

    python3 tools/bench_documents.py OUT_DIR

Builds the seeded documents of every benchmark scenario for seeds 1-8
with ``perfbench.workloads.make_documents`` and runs
``manisweep.cli.main`` in-process on each, with manisweep imported from
the ``src`` directory of the checkout this script lives in.  For seed S
and scenario NAME it writes, with the prefix ``sS.NAME``:

* ``.json``: the scenario document;
* ``.certify.json``: ``certify``;
* ``.diagnose.json``: ``diagnose --samples 120``;
* ``.csv``, ``.meta.json``: ``simulate --h 1e-2`` and its sidecar;
* ``.rates.json``, ``.rates.dat``: ``rates --levels 4`` and its ``--data``
  file;

and one file ``exit_codes.txt`` with a line ``sS NAME COMMAND CODE`` per
call.  Two checkouts produce the same artifacts and exit codes when
``diff -r`` of their output directories is empty.  Nonzero exit codes
are recorded, not failures: the exit status is 0 once every call ran.
"""

from __future__ import annotations

import sys
from pathlib import Path

from golden_artifacts import _import_cli

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)


def _calls(scenario: Path, prefix: Path):
    """(command, argv) of each call on one document."""
    s = ["--scenario", str(scenario)]
    return [
        ("certify", ["certify", *s, "--out", f"{prefix}.certify.json"]),
        ("diagnose", ["diagnose", *s, "--samples", "120", "--out", f"{prefix}.diagnose.json"]),
        ("simulate", ["simulate", *s, "--h", "1e-2", "--out", f"{prefix}.csv",
                      "--metadata", f"{prefix}.meta.json"]),
        ("rates", ["rates", *s, "--levels", "4", "--out", f"{prefix}.rates.json",
                   "--data", f"{prefix}.rates.dat"]),
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: bench_documents.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    cli = _import_cli()
    sys.path.insert(0, str(ROOT))
    from manisweep.scenario import dumps_document
    from perfbench.workloads import SCENARIOS, make_documents

    lines = []
    for seed in SEEDS:
        for name, doc in make_documents(seed, SCENARIOS).items():
            prefix = out / f"s{seed}.{name}"
            scenario = prefix.with_name(prefix.name + ".json")
            scenario.write_text(dumps_document(doc))
            for command, argv in _calls(scenario, prefix):
                lines.append(f"s{seed} {name} {command} {cli.main(argv)}")
                print(lines[-1])
    (out / "exit_codes.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
