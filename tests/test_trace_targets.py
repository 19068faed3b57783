"""The benchmark's tracer wraps named entry points; each must still exist.

perfbench/spans.py lists them in TARGETS and looks each up the way this test
does, so a deleted or renamed entry point fails here instead of in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for layer, module_name, qualname in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__[attr]), (layer, module_name, qualname)
