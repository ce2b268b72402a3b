"""Write the artifacts of every golden and seeded benchmark document into one directory.

Usage::

    python3 tools/artifact_tree.py OUT_DIR

Runs ``manisweep.cli.main`` in-process, with manisweep imported from the
``src`` directory of the checkout this script lives in, on 53 documents: each
bundled golden NAME, prefix ``NAME``, and the seeded document of each benchmark
scenario NAME for seeds S = 1-8 (``perfbench.workloads.make_documents``), prefix
``sS.NAME``, written as ``sS.NAME.json``.  Each document, with prefix P, gets
the same six calls, in this order, and nine files:

* ``P.csv``, ``P.meta.json``: ``simulate --h 1e-2`` and its sidecar;
* ``P.certify.json``: ``certify``;
* ``P.rates.json``, ``P.rates.dat``, ``P.rates.txt``: ``rates --levels 4``,
  its ``--data`` file and the table it prints;
* ``P.diagnose.json``: ``diagnose --samples 120``;
* ``P.echo.json``, ``P.validate.txt``: what ``validate --echo`` and
  ``validate`` print.

``exit_codes.txt`` holds a line ``P COMMAND CODE`` per call.  Two checkouts
write the same artifacts and exit codes when ``diff -r`` of their output
directories is empty.  Nonzero exit codes are recorded, not failures: the
exit status is 0 once every call ran, 2 on a usage error.
"""

import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import manisweep  # noqa: E402
from manisweep import cli  # noqa: E402
from manisweep.scenario import dumps_document  # noqa: E402
from perfbench.workloads import SCENARIOS, make_documents  # noqa: E402

if Path(manisweep.__file__).resolve().parent != ROOT / "src" / "manisweep":
    raise SystemExit(f"error: imported manisweep from {manisweep.__file__}")


def documents():
    """(prefix, bundled file or scenario document) of each document, goldens first."""
    goldens = sorted((ROOT / "src" / "manisweep" / "scenarios").glob("*.json"))
    return [(p.stem, p) for p in goldens] + [
        (f"s{seed}.{name}", doc)
        for seed in range(1, 9) for name, doc in make_documents(seed, SCENARIOS).items()
    ]


def write_artifacts(out: Path, prefix: str, source) -> list:
    """Run the six calls on one document into ``out``; a line ``P COMMAND CODE`` per call."""
    p = out / prefix
    if isinstance(source, dict):
        Path(f"{p}.json").write_text(dumps_document(source))
        source = f"{p}.json"
    s = ["--scenario", str(source)]
    calls = [  # (argv, suffix of the file its printed text goes to, or None)
        (["simulate", *s, "--h", "1e-2", "--out", f"{p}.csv", "--metadata", f"{p}.meta.json"],
         None),
        (["certify", *s, "--out", f"{p}.certify.json"], None),
        (["rates", *s, "--levels", "4", "--out", f"{p}.rates.json", "--data", f"{p}.rates.dat"],
         "rates.txt"),
        (["diagnose", *s, "--samples", "120", "--out", f"{p}.diagnose.json"], None),
        (["validate", *s, "--echo"], "echo.json"),
        (["validate", *s], "validate.txt"),
    ]
    lines = []
    for argv, printed in calls:
        sink = open(f"{p}.{printed}", "w") if printed else contextlib.nullcontext(sys.stdout)
        with sink as fh, contextlib.redirect_stdout(fh):
            code = cli.main(argv)
        lines.append(f"{prefix} {argv[0]} {code}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: artifact_tree.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for prefix, source in documents():
        lines += write_artifacts(out, prefix, source)
        print(*lines[-6:], sep="\n", flush=True)
    (out / "exit_codes.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
