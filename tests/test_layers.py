"""The benchmark's per-layer hooks must name functions that exist.

bench/tracer.py wraps flexsic functions by the name ``<module>.<function>``
and quietly skips a hook that no longer resolves, so a renamed or deleted
function would drop its span from every traced run without an error. This
test reads the hook list from that file and fails instead.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _hooks() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("hook", _hooks())
def test_bench_hook_resolves_in_flexsic(hook):
    module_name, _, func_name = hook.rpartition(".")
    module = importlib.import_module(f"flexsic.{module_name}")
    assert callable(getattr(module, func_name, None)), f"{hook} no longer resolves"
