"""Span tracing of flexsic's layers from outside the package.

A hook names a layer as ``<module>.<function>``, after the flexsic module
that defines the function. Installing a Tracer replaces that function in
every flexsic module that binds it: the defining module, which covers
calls from inside it (``sic.estimate_iq`` calling ``sic.ls_solve``), and
each module that imported it (``scenario`` calling ``sic.run_sic``). So the
spans sit at the call sites and no program file changes.

A hook whose module or function no longer exists is skipped and listed
in ``Tracer.absent``. Leaving ``Tracer.installed()`` puts every replaced
attribute back.

Spans stay in memory as lists ``[name, start_ns, end_ns, parent,
scenario, error, counted]``: ``parent`` is the index of the enclosing span
or -1, ``scenario`` the index set on the tracer when the span opened,
``error`` the name of the exception the call raised or None, and
``counted`` whether a hook listed in COUNTED was passed an OpCounter.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

HOOKS = (
    "scenario.run_scenario",
    "sic.estimate_iq",
    "sic.estimate_pa",
    "sic.estimate_channel",
    "sic.select_basis",
    "sic.precombine",
    "sic.run_sic",
    "sic.estimate_linear_channel",
    "sic.baseline_linear",
    "sic.baseline_full_ls",
    "sic.run_full_ls",
    "sic.ls_solve",
    "imd.make_imd_tables",
    "imd.basis_chain",
    "imd.impulse_pilot",
    "ofdm.gen_qam_symbols",
    "ofdm.idft",
    "ofdm.add_cp",
    "ofdm.remove_cp",
    "impairments.apply_iq_time",
    "impairments.apply_pa",
    "channel.synth_channel",
    "channel.build_mimo_taps",
    "channel.apply_beams",
    "channel.apply_channel",
)

# Running cancellers whose time is set against the multiplies they charge;
# only calls that were handed a counter charge any.
COUNTED = ("sic.run_sic", "sic.run_full_ls")

PACKAGE = "flexsic"


class Tracer:
    """Installs span-recording wrappers on flexsic functions and keeps the spans."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.spans: list[list] = []
        self.scenario = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._restore()

    def _install(self) -> None:
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for hook in self.hooks:
            module_name, _, func_name = hook.rpartition(".")
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(hook)
                continue
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(hook)
                continue
            wrapper = self._wrap(hook, original)
            for module in modules + [home]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, hook: str, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(func) if hook in COUNTED else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counted = False
            if signature is not None:
                counted = signature.bind(*args, **kwargs).arguments.get("counter") is not None
            span = [hook, 0, 0, stack[-1] if stack else -1, self.scenario, None, counted]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            except BaseException as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children, in ns."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path) -> None:
        """Write the spans as CSV, one row per span, in the order they opened."""
        with open(path, "w") as fh:
            fh.write("span,parent,scenario,name,start_ns,end_ns,error\n")
            for i, (name, start, end, parent, scenario, error, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{scenario},{name},{start},{end},{error or ''}\n")
