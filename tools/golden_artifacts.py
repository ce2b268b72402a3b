"""Write the artifacts of every bundled golden scenario into one directory.

Usage::

    python3 tools/golden_artifacts.py OUT_DIR

Runs ``manisweep.cli.main`` in-process, with manisweep imported from the
``src`` directory of the checkout this script lives in.  For each bundled
scenario NAME it writes nine files:

* ``NAME.csv``, ``NAME.meta.json``: ``simulate --h 1e-2`` and its sidecar;
* ``NAME.certify.json``: ``certify``;
* ``NAME.rates.json``, ``NAME.rates.dat``, ``NAME.rates.txt``:
  ``rates --levels 4``, its ``--data`` file and the table it prints;
* ``NAME.diagnose.json``: ``diagnose --samples 120``;
* ``NAME.echo.json``, ``NAME.validate.txt``: what ``validate --echo``
  and ``validate`` print.

Two checkouts produce byte-identical artifacts when ``diff -r`` of their
output directories is empty.  The exit status is 1 if any command exits
nonzero.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import manisweep
    from manisweep import cli

    if Path(manisweep.__file__).resolve().parent != SRC / "manisweep":
        raise SystemExit(f"error: imported manisweep from {manisweep.__file__}")
    return cli


def _calls(name: str, scenario: Path, out: Path):
    """(argv, stdout file or None) of each command run on one golden."""
    s = ["--scenario", str(scenario)]
    return [
        (["simulate", *s, "--h", "1e-2", "--out", str(out / f"{name}.csv"),
          "--metadata", str(out / f"{name}.meta.json")], None),
        (["certify", *s, "--out", str(out / f"{name}.certify.json")], None),
        (["rates", *s, "--levels", "4", "--out", str(out / f"{name}.rates.json"),
          "--data", str(out / f"{name}.rates.dat")], out / f"{name}.rates.txt"),
        (["diagnose", *s, "--samples", "120", "--out", str(out / f"{name}.diagnose.json")],
         None),
        (["validate", *s, "--echo"], out / f"{name}.echo.json"),
        (["validate", *s], out / f"{name}.validate.txt"),
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: golden_artifacts.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    cli = _import_cli()
    failed = 0
    for scenario in sorted((SRC / "manisweep" / "scenarios").glob("*.json")):
        for cmd, stdout_path in _calls(scenario.stem, scenario, out):
            if stdout_path is None:
                code = cli.main(cmd)
            else:
                with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
                    code = cli.main(cmd)
            print(f"{scenario.stem} {cmd[0]}: exit {code}")
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
