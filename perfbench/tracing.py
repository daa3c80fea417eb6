"""Opt-in call tracing of nskd's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function with a wrapper in
every namespace it is looked up from at call time: its defining module
and the modules that imported it with ``from ... import`` (for example
``nskd.rates.table_joint``), plus scipy's ``minimize`` and ``linprog`` as
seen from ``nskd.rates`` and ``nskd.polytope``.  Each call becomes a span
(name, parent, start, end, value) kept in memory; ``value`` carries a
per-call quantity such as the optimizer's ``nfev`` or the rounds simulated.
Nothing is patched while tracing is off, so untraced runs pay nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

from nskd import attack, boxes, cli, info, polytope, rates, simulate

# span name -> (namespaces holding the name, per-call value or None)
TARGETS = {
    "cli.main": ([cli], None),
    "boxes.validate": ([boxes], None),
    "polytope.min_nonlocal_decomposition": ([polytope], None),
    "polytope.linprog": ([polytope], None),
    "attack.table_joint": ([attack, rates], None),
    "attack.sift": ([attack], None),
    "attack.alice_bob_stats": ([attack, rates], None),
    "info.mutual_information": ([info, rates], None),
    "info.conditional_mutual_information": ([info, rates], None),
    "rates.optimize_preprocessing": ([rates], None),
    "rates.preprocessing_threshold": ([rates], None),
    "rates.intrinsic_numeric": ([rates], None),
    "rates.minimize": ([rates], lambda res: res.nfev),
    "rates.ad_block_ensemble": ([rates], None),
    "rates.ad_threshold": ([rates], None),
    "rates.ad_preprocessing_threshold": ([rates], None),
    "simulate.run": ([simulate], len),
    "simulate.estimate": ([simulate], None),
    "simulate.to_csv": ([simulate.RoundLog], len),
}


class Tracer:
    """In-memory spans with a parent link; ``paused`` lets calls through untraced."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, value]
        self.stack = []
        self.paused = False

    def call(self, name, fn, value, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        span = [name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self.stack.pop()
        if value is not None:
            span[4] = value(result)
        return result

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for name, (owners, value) in TARGETS.items():
            attr = name.rsplit(".", 1)[1]
            original = getattr(owners[0], attr)
            wrapper = self._wrap(name, original, value)
            for owner in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name, fn, value):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, value, args, kwargs)

        return wrapper


def write_spans(path, header, passes):
    """One JSON line of header, then one line [pass, name, parent, start, end, value] per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([k, *span]) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one pass; self time is a span minus its children."""
    child_s = defaultdict(float)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    values = defaultdict(int)
    for i, (name, _, start, end, value) in enumerate(spans):
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - child_s[i]
        values[name] += value
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["rates.intrinsic_numeric.optimizer_runs"] = calls["rates.minimize"]
    out["rates.intrinsic_numeric.objective_evals"] = values["rates.minimize"]
    out["simulate.run.rounds"] = values["simulate.run"]
    out["simulate.to_csv.bytes"] = values["simulate.to_csv"]
    out["polytope.lp_solves"] = calls["polytope.linprog"]
    out["polytope.lp_s"] = total_s["polytope.linprog"]
    return out
