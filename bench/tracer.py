"""Span and counter tracing of semichain, installed from outside the package.

The tracer replaces module attributes that semichain resolves at call
time (``runner.step``, ``chain._rates``, ``oracle._rhs`` ...) with thin
wrappers. A span wrapper records (name, parent, start, end) for every
call; a counter wrapper only counts calls. Nothing in the package is
edited, so the same package code runs traced and untraced.

Self time of a span is its duration minus the durations of its direct
children, so a layer's self time excludes every wrapped layer it calls.
"""

import os
import sys
import time
from functools import wraps

# (module, attribute, span name). A target is wrapped in every semichain
# module that holds the same function object, so ``runner.step`` and
# ``chain.step`` become one span name.
SPANS = [
    ("semichain.config", "validate_config", "config.validate"),
    ("semichain.runner", "run", "runner.run"),
    ("semichain.chain", "initial_chain", "chain.initial_chain"),
    ("semichain.chain", "step", "chain.step"),
    ("semichain.chain", "_rates", "chain.rates"),
    ("semichain.chain", "_derivatives", "chain.derivative"),
    ("semichain.chain", "estimate", "chain.estimate"),
    ("semichain.chain", "chain_quality", "chain.quality"),
    ("semichain.chain", "reformat", "chain.reformat"),
    ("semichain.chain", "BargmannInterpolant.phi_at", "chain.interp"),
    ("semichain.sampling", "sample_positions", "sampling.sample_positions"),
    ("semichain.oracle", "build_initial", "oracle.build"),
    ("semichain.oracle", "evolve", "oracle.evolve"),
    ("semichain.oracle", "antinormal_expectation", "oracle.expectation"),
    ("semichain.checkpoint", "save_checkpoint", "checkpoint.save"),
]

COUNTERS = [
    ("semichain.oracle", "_rhs", "oracle.rhs"),
    ("semichain.model", "rotated_currents", "model.rotated_currents"),
]


def holders_of(obj):
    """Every (semichain module, attribute name) bound to ``obj``; aliases
    count too, as cli holds ``runner.run`` as ``_run``."""
    return [(m, key) for n, m in list(sys.modules.items())
            if n == "semichain" or n.startswith("semichain.")
            for key, value in list(vars(m).items()) if value is obj]


class Tracer:
    """In-memory spans and counters; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, parent index or -1, start, end]
        self.stack = []
        self.counters = {}
        self.absent = []
        self._patched = []   # (owner, attr, original)

    def count(self, name, by=1):
        self.counters[name] = self.counters.get(name, 0) + by

    def caller_name(self):
        """Name of the span that called the innermost open span."""
        parent = self.spans[self.stack[-1]][1] if self.stack else -1
        return self.spans[parent][0] if parent >= 0 else None

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, args,
        kwargs, result)`` runs inside the span once the call has returned."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, self.stack[-1] if self.stack else -1, self.clock(), None]
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            except Exception as e:
                self.count(f"{name}.raised.{type(e).__name__}")
                raise
            finally:
                self.stack.pop()
                rec[3] = self.clock()

        return wrapper

    def counter(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self):
        """Per span name: calls, total and self seconds; per (parent,
        name) edge: total seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = {}
        edges = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            s = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            key = f"{self.spans[parent][0] if parent >= 0 else ''}>{name}"
            edges[key] = edges.get(key, 0.0) + end - start
        return {"spans": by_name, "edges": edges, "counters": dict(self.counters),
                "absent": list(self.absent)}

    # -- installing on semichain ------------------------------------------

    def _patch_everywhere(self, module_name, attr, make_wrapper):
        """Replace ``attr`` wherever semichain modules hold it; returns
        False when the target does not exist."""
        module = sys.modules.get(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = module
        if module is not None and owner_name:
            owner = getattr(module, owner_name, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return False
        wrapped = make_wrapper(original)
        places = [(owner, leaf)] if owner_name else holders_of(original)
        for holder, key in places:
            self._patched.append((holder, key, original))
            setattr(holder, key, wrapped)
        return True

    def install(self):
        """Wrap every target; semichain must already be imported."""
        hooks = {"chain.derivative": _after_derivative,
                 "sampling.sample_positions": _after_sample,
                 "checkpoint.save": _after_save,
                 "oracle.evolve": _after_evolve}
        for module_name, attr, name in SPANS:
            self._patch_everywhere(
                module_name, attr,
                lambda fn, name=name: self.span(name, fn, hooks.get(name)))
        for module_name, attr, name in COUNTERS:
            self._patch_everywhere(module_name, attr,
                                   lambda fn, name=name: self.counter(name, fn))
        # the initial sampler's weight is a closure built by
        # log_weight_from_phi; count calls of the closure it returns
        self._patch_everywhere("semichain.sampling", "log_weight_from_phi",
                               lambda fn: self._counting_factory(fn))

    def _counting_factory(self, factory):
        @wraps(factory)
        def wrapper(*args, **kwargs):
            return self.counter("sampling.log_weight", factory(*args, **kwargs))

        return wrapper

    def uninstall(self):
        for holder, leaf, original in reversed(self._patched):
            setattr(holder, leaf, original)
        self._patched.clear()


def _after_derivative(tracer, args, kwargs, result):
    alphas, phis = args[0], args[1]
    tracer.count("chain.derivative.points", alphas.shape[0])
    tracer.count("chain.derivative.input_bytes", alphas.nbytes + phis.nbytes)


def _after_sample(tracer, args, kwargs, result):
    if tracer.caller_name() != "chain.initial_chain":
        return
    alphas, starts = result
    # consecutive pairs within a segment; a rejected proposal repeats a point
    same = (alphas[1:] == alphas[:-1]).all(axis=1)
    same[starts[1:] - 1] = False
    tracer.count("sampling.initial.points", alphas.shape[0])
    tracer.count("sampling.initial.pairs", same.shape[0] - (len(starts) - 1))
    tracer.count("sampling.initial.dup_pairs", int(same.sum()))


def _after_save(tracer, args, kwargs, result):
    tracer.count("checkpoint.bytes_written", os.path.getsize(args[0]))


def _after_evolve(tracer, args, kwargs, result):
    tracer.count("oracle.evolved_t", abs(args[2]))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(summary, import_s):
    """Per-layer metrics of one traced run, from ``Tracer.summary()``."""
    spans, edges, c = summary["spans"], summary["edges"], summary["counters"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    deriv_s = total("chain.derivative")
    init_sample_s = edges.get("chain.initial_chain>sampling.sample_positions", 0.0)
    lw_calls = c.get("sampling.log_weight", 0)
    reformat_raised = sum(v for k, v in c.items()
                          if k.startswith("chain.reformat.raised."))
    return {
        "chain.derivative_s": (deriv_s, "s"),
        "chain.derivative_us_per_point": (
            _ratio(deriv_s, c.get("chain.derivative.points", 0), 1e6), "us"),
        "chain.derivative_input_MBps": (
            _ratio(c.get("chain.derivative.input_bytes", 0), deriv_s, 1e-6), "MB/s"),
        "chain.rates_self_s": (self_s("chain.rates"), "s"),
        "chain.step_calls": (calls("chain.step"), "count"),
        "chain.step_ms": (_ratio(total("chain.step"), calls("chain.step"), 1e3), "ms"),
        "chain.step_self_s": (self_s("chain.step"), "s"),
        "sampling.initial.sample_s": (init_sample_s, "s"),
        "sampling.log_weight_calls": (lw_calls, "count"),
        "sampling.us_per_proposal": (_ratio(init_sample_s, lw_calls, 1e6), "us"),
        "sampling.points_per_proposal": (
            _ratio(c.get("sampling.initial.points", 0), lw_calls), "1"),
        "sampling.dup_frac": (
            _ratio(c.get("sampling.initial.dup_pairs", 0),
                   c.get("sampling.initial.pairs", 0)), "1"),
        "chain.initial_phi_s": (self_s("chain.initial_chain"), "s"),
        "chain.reformat_s": (total("chain.reformat"), "s"),
        "chain.reformat_calls": (calls("chain.reformat"), "count"),
        "chain.reformat_rejected": (reformat_raised, "count"),
        "chain.interp_calls": (calls("chain.interp"), "count"),
        "chain.interp_us_per_call": (
            _ratio(total("chain.interp"), calls("chain.interp"), 1e6), "us"),
        "sampling.reformat.sample_s": (
            edges.get("chain.reformat>sampling.sample_positions", 0.0), "s"),
        "oracle.build_s": (total("oracle.build"), "s"),
        "oracle.evolve_s": (total("oracle.evolve"), "s"),
        "oracle.evolve_s_per_t": (
            _ratio(total("oracle.evolve"), c.get("oracle.evolved_t", 0.0)), "s"),
        "oracle.rhs_calls": (c.get("oracle.rhs", 0), "count"),
        "oracle.expectation_s": (total("oracle.expectation"), "s"),
        "model.rotated_currents_calls": (c.get("model.rotated_currents", 0), "count"),
        "checkpoint.save_s": (total("checkpoint.save"), "s"),
        "checkpoint.saves": (calls("checkpoint.save"), "count"),
        "checkpoint.bytes_written": (c.get("checkpoint.bytes_written", 0), "bytes"),
        "chain.estimate_s": (total("chain.estimate"), "s"),
        "chain.quality_s": (total("chain.quality"), "s"),
        "config.validate_s": (total("config.validate"), "s"),
        "runner.self_s": (self_s("runner.run"), "s"),
        "cli.import_s": (import_s, "s"),
    }
