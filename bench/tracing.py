"""Spans around the public mortgp functions the CLI calls, recorded from outside.

``install`` replaces each function at the module attribute the caller looks
it up by, so a span opens on every call and nests under the span that was
open when the call began.  Spans stay in memory as plain tuples until the run
ends.  Tracing is single-threaded: the benchmark pins MORTGP_THREADS to 1.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from pathlib import Path

# (module, attribute, span name): the attribute is the name the caller uses
WRAPPED = (
    ("mortgp.cli", "load_table", "data.load_table"),
    ("mortgp.cli", "fit_mle", "hyperfit.fit_mle"),
    ("mortgp.hyperfit", "minimize", "hyperfit.minimize"),
    ("mortgp.cli", "load_model", "serialize.load_model"),
    ("mortgp.cli", "save_model", "serialize.save_model"),
    ("mortgp.kernels", "cov_matrix", "kernels.cov_matrix"),
    ("mortgp.kernels", "cross_cov", "kernels.cross_cov"),
    ("mortgp.gp", "fit_gls_xy", "gp.fit_gls"),
    ("mortgp.gp", "predict", "gp.predict"),
    ("mortgp.gp", "predict_year_derivative", "gp.predict_year_derivative"),
    ("mortgp.gp", "sample_paths", "gp.sample_paths"),
    ("mortgp.gp", "log_marginal_likelihood", "gp.log_marginal_likelihood"),
    ("mortgp.improvement", "mi_back_gp", "improvement.mi_back_gp"),
    ("mortgp.improvement", "mi_diff_gp", "improvement.mi_diff_gp"),
    ("mortgp.improvement", "mi_centered", "improvement.mi_centered"),
    ("mortgp.updating", "update", "updating.update"),
    ("mortgp.updating", "update_report", "updating.update_report"),
)


class Tracer:
    """Span recorder.  A span is [id, name, start, end, parent id, run id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = -1

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, 0.0, 0.0, parent, self.run_id, attrs or {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if name == "serialize.load_model" and isinstance(args[0], (str, Path)):
                attrs["bytes"] = os.path.getsize(args[0])
            with self.span(name, attrs) as rec:
                result = fn(*args, **kwargs)
                if name == "hyperfit.minimize":
                    rec[6].update(nfev=int(result.nfev), nit=int(result.nit), fun=float(result.fun))
                return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = modules[module_name]
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

