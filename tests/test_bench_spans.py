"""The benchmark's tracer still finds every function it wraps.

``bench/spans.py`` names the traced functions as strings, so renaming one in
the package would otherwise only surface as a failure of
``bench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import binadapt
import binadapt.cli  # the test reads binadapt.cli, which the package does not import

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_uninstalls():
    spans = _load_spans()
    traced = [(getattr(binadapt, module), attr)
              for module, attrs in spans._TRACED.items() for attr in attrs]
    originals = [getattr(module, attr) for module, attr in traced]
    tracer = spans.Tracer()
    tracer.install(binadapt)  # looks every traced name up: a rename raises here
    try:
        for (module, attr), fn in zip(traced, originals):
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr} is not wrapped"
        # a binding imported into another module is wrapped there too
        assert binadapt.cli.autobindann is binadapt.similarity.autobindann
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in traced] == originals
    assert binadapt.cli.autobindann is binadapt.similarity.autobindann
