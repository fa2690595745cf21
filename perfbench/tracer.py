"""Run one foglink CLI command with spans recorded at layer boundaries.

Usage: python perfbench/tracer.py SUMMARY_JSON CLI_ARG...

The command runs in this process through ``foglink.cli.main``.  Before it
starts, each function a layer calls into is replaced, in the namespace the
caller looks it up in, by a wrapper that records a span: name, start, end,
the span that was open when it started, and its self time (duration minus
the child spans inside it).  Spans stay in memory; at exit they are summed
by name and the summary is written to SUMMARY_JSON.  Nothing in the package
is edited: a name the package no longer has is simply not traced.

A span's name is ``<layer>.<function>``; the layer is the part before the
first dot.  The parent process times the whole command, so the time no span
covers (interpreter start-up and exit) is what remains of that wall time.
"""

import importlib.abc
import importlib.util
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent id, start, end, self seconds, attrs)
        self._stack = []  # open spans: [id, start, child seconds]
        self._next_id = 0

    def _push(self):
        frame = [self._next_id, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = _clock()
        return frame

    def _pop(self, frame, name, attrs=None):
        end = _clock()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            (frame[0], name, parent[0] if parent else -1, frame[1], end,
             duration - frame[2], attrs)
        )

    def span(self, name, fn, *args):
        """Call ``fn`` inside a span called ``name``."""
        frame = self._push()
        try:
            return fn(*args)
        finally:
            self._pop(frame, name)

    def wrap(self, owner, attr, name, measure=None):
        """Route calls to ``owner.attr`` through a span; skip a missing name."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._push()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._pop(frame, name, {"raised": 1})
                raise
            tracer._pop(frame, name, measure(args, result) if measure else None)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def summary(self):
        by_name = {}
        for _, name, _, start, end, self_s, attrs in self.spans:
            entry = by_name.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            for key, value in (attrs or {}).items():
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        return by_name


def _solve_report(args, report):
    return {"iterations": getattr(report, "iterations", 0)}


def _text_bytes(args, text):
    return {"bytes": len(text.encode("utf-8"))}


def _array_args(args, result):
    arrays = [a for a in args if hasattr(a, "nbytes") and getattr(a, "ndim", 0) == 1]
    samples = len(arrays[0]) if arrays else 0
    return {"samples": samples, "input_bytes": sum(a.nbytes for a in arrays)}


def _mc_samples(args, result):
    return {"samples": getattr(result, "n_samples", 0)}


# (module, attribute, span name, measure): the namespaces callers look the
# functions up in.  A function bound into a caller at import time is wrapped
# in that caller; one looked up through its own module is wrapped there.
SITES = (
    *(("foglink.cli", f, f"cli.sweep.{f}", None) for f in (
        "sweep_fig3", "sweep_fig4", "sweep_fig5", "sweep_fig6",
        "link_power_row", "breakeven_rows", "mc_verify")),
    ("foglink.cli", "render_csv", "cli.render_csv", _text_bytes),
    ("foglink.cli", "_emit", "cli.emit", None),
    *(("foglink.cli", f, f"config.{f}", None) for f in (
        "load_config", "default_params", "load_params", "dump_defaults")),
    ("foglink.cli", "offload_power", "chain.offload_power", None),
    ("foglink.chain", "offload_power", "chain.offload_power", None),
    ("foglink.cli", "breakeven_theta", "chain.breakeven_theta", None),
    ("foglink.cli", "local_power", "chain.local_power", None),
    ("foglink.cli", "operating_point", "link.operating_point", None),
    ("foglink.chain", "operating_point", "link.operating_point", None),
    ("foglink.cli", "build_channel", "link.build_channel", None),
    ("foglink.link", "build_channel", "link.build_channel", None),
    ("foglink.cli", "required_sinr", "link.required_sinr", None),
    ("foglink.pa", "optimal_ibo", "pa.optimal_ibo", None),
    ("foglink.pa", "solve_newton", "numerics.solve_newton", _solve_report),
    ("foglink.cli", "run_mc", "mc.run_mc", _mc_samples),
    ("foglink.mc", "run_mc", "mc.run_mc", _mc_samples),
    ("foglink.mc", "_chunk_sums", "mc.chunk_sums", None),
    ("foglink._kernels", "moment_sums", "kernels.moment_sums", _array_args),
)


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Apply the wraps of a module that is imported only later (lazily)."""

    def __init__(self, tracer, pending):
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, name, path=None, target=None):
        sites = self.pending.pop(name, None)
        if sites is None:
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(name)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            for attr, span_name, measure in sites:
                self.tracer.wrap(module, attr, span_name, measure)

        spec.loader.exec_module = exec_and_wrap
        return spec


def install(tracer):
    """Wrap every site; a module not imported yet is wrapped when it is."""
    pending = {}
    for module_name, attr, span_name, measure in SITES:
        module = sys.modules.get(module_name)
        if module is None:
            pending.setdefault(module_name, []).append((attr, span_name, measure))
        else:
            tracer.wrap(module, attr, span_name, measure)
    if pending:
        sys.meta_path.insert(0, _WrapOnImport(tracer, pending))


def main(argv):
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()

    def load_cli():
        import foglink.cli
        return foglink.cli

    cli = tracer.span("import.foglink_cli", load_cli)
    tracer.span("trace.install", install, tracer)
    code = 1
    try:
        code = tracer.span("cli.main", cli.main, cli_args)
    finally:
        sys.stdout.flush()
        frame = tracer._push()
        import json

        summary = tracer.summary()
        tracer._pop(frame, "trace.flush")
        _, _, _, start, end, self_s, _ = tracer.spans[-1]
        summary["trace.flush"] = {
            "calls": 1, "total_s": end - start, "self_s": self_s, "attrs": {},
        }
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump({"exit_code": code, "spans": summary}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
