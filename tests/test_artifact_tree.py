"""The artifact-tree writer: one call list on every document, the same bytes on every run."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_tree.py"
_spec = importlib.util.spec_from_file_location("artifact_tree", TOOL)
artifact_tree = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_tree)

SUFFIXES = ("csv", "meta.json", "certify.json", "rates.json", "rates.dat", "rates.txt",
            "diagnose.json", "echo.json", "validate.txt")
COMMANDS = ("simulate", "certify", "rates", "diagnose", "validate", "validate")


def test_one_document_writes_its_nine_files_with_the_same_bytes_twice(tmp_path):
    source = dict(artifact_tree.documents())["halfline"]
    trees = []
    for run in ("first", "second"):
        out = tmp_path / run
        out.mkdir()
        lines = artifact_tree.write_artifacts(out, "halfline", source)
        assert lines == [f"halfline {command} 0" for command in COMMANDS]
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(trees[0]) == sorted(f"halfline.{suffix}" for suffix in SUFFIXES)
    assert trees[0] == trees[1]


def test_the_documents_are_five_goldens_and_48_seeded_ones():
    prefixes = [prefix for prefix, _ in artifact_tree.documents()]
    assert len(set(prefixes)) == len(prefixes) == 53
    seeded = [p for p in prefixes if re.fullmatch(r"s[1-8]\.\w+", p)]
    assert len(seeded) == 48
    assert prefixes[:5] == sorted(set(prefixes) - set(seeded))
