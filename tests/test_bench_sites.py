"""The benchmark's tracer wraps frontlab functions where they are looked up
(bench/tracer.py, SITES and RULE_SITES).  A refactor that renames or stops
importing one of them breaks the benchmark, so check that every site still
resolves.  The tracer module is only loaded, never entered."""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_tracer_site_resolves():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [(module, attr) for module, attr, *_ in tracer.SITES + tracer.RULE_SITES]
    assert sites
    missing = [f"{module}.{attr}" for module, attr in sites if not _resolves(module, attr)]
    assert not missing, missing
