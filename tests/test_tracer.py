"""The benchmark's per-layer tracer must find every name it wraps, and undo every patch.

``perfbench/layers.py`` wraps functions and methods of ``manisweep`` by
name; renaming or deleting one of them breaks the traced benchmark run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bindings(classes):
    """Every name bound in a manisweep module or in the given classes, with its value."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "manisweep" or name.startswith("manisweep."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in classes:
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_wraps_every_layer_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.layers import Tracer

    tracer = Tracer()
    specs = tracer._specs()
    classes = {owner for _, owner, _, _, _ in specs if isinstance(owner, type)}
    before = _bindings(classes)
    try:
        tracer.install()
        for _, owner, attr, _, _ in specs:
            # a spec whose name is gone raises in install(); each one is wrapped
            assert getattr(vars(owner)[attr], "__wrapped__", None) is not None, attr
    finally:
        tracer.uninstall()
    after = _bindings(classes)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
