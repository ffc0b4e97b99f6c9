"""The benchmark's per-layer hooks must name functions that exist.

bench/tracer.py wraps flexsic functions by the name ``<module>.<function>``
and quietly skips a hook that no longer resolves, so a renamed or deleted
function would drop its span from every traced run without an error. This
test reads the hook list from that file and fails instead.

A function deleted on purpose while the hook list still names it is listed
in RETIRED. Its hook must stay unresolved and stay in the hook list: once
the list drops it, so does RETIRED.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

RETIRED = (
    # the time-domain prefix chain, replaced by the per-subcarrier reception
    "ofdm.add_cp",
    "ofdm.remove_cp",
    "channel.apply_channel",
    # the table wrapper; `flexsic tables` calls q_size and mu_tables itself
    "imd.make_imd_tables",
)


def _hooks() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def _resolves(hook: str) -> bool:
    module_name, _, func_name = hook.rpartition(".")
    module = importlib.import_module(f"flexsic.{module_name}")
    return callable(getattr(module, func_name, None))


@pytest.mark.parametrize("hook", [h for h in _hooks() if h not in RETIRED])
def test_bench_hook_resolves_in_flexsic(hook):
    assert _resolves(hook), f"{hook} no longer resolves"


@pytest.mark.parametrize("hook", RETIRED)
def test_retired_bench_hook_is_gone_from_flexsic(hook):
    assert hook in _hooks(), f"{hook} left the hook list; drop it from RETIRED"
    assert not _resolves(hook), f"{hook} resolves again; drop it from RETIRED"
