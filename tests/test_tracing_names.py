"""The layer tracer of the benchmark patches library functions by name; a
renamed or deleted one must fail here, not only in the benchmark's own
suite."""

import sys
from pathlib import Path


def test_tracer_installs_and_uninstalls_on_the_current_library(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    originals = [getattr(module, attr) for module, attr, *_ in tracing.SPANS + tracing.LEAVES]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, *_ in tracing.SPANS + tracing.LEAVES] == originals
    sys.modules.pop("tracing", None)
