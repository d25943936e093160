"""The benchmark's traced run wraps package attributes by name; each must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_call_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing.patch_table(tracing.package_modules())
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in table if not hasattr(module, attr)]
    assert table and not missing
