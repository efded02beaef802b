"""Per-layer metrics from the spans of a traced run.

A layer's time is its inclusive span time in one pass of the pipeline: for
each command (fit, smooth, forecast, improve with its three kinds, sample,
update) the median over that command's calls (see ``warm_median``) of the
time spent in the layer's spans during the call, summed over the commands.  ``cli.<command>``
is the command's self time: its span minus the time its child spans cover,
that is argument parsing, CSV/JSON formatting and writing.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

COMMANDS = ("fit", "smooth", "forecast", "improve", "sample", "update")

LAYER_SPANS = {
    "data.load_table_s": "data.load_table",
    "kernels.cov_matrix_s": "kernels.cov_matrix",
    "kernels.cross_cov_s": "kernels.cross_cov",
    "gp.fit_gls_s": "gp.fit_gls",
    "gp.predict_s": "gp.predict",
    "gp.predict_year_derivative_s": "gp.predict_year_derivative",
    "gp.sample_paths_s": "gp.sample_paths",
    "hyperfit.fit_mle_s": "hyperfit.fit_mle",
    "improvement.mi_back_gp_s": "improvement.mi_back_gp",
    "improvement.mi_diff_gp_s": "improvement.mi_diff_gp",
    "improvement.mi_centered_s": "improvement.mi_centered",
    "updating.update_s": "updating.update",
    "updating.update_report_s": "updating.update_report",
    "serialize.load_model_s": "serialize.load_model",
    "serialize.save_model_s": "serialize.save_model",
}

# a tie within this many nats counts a restart as reaching the best optimum
BEST_TOL = 1e-3


def warm_median(values: list) -> float:
    """Median over one command's calls, leaving out the first when there are more.

    The first call in a process runs with cold caches and a heap that is still
    growing.  How many calls follow it depends on how fast the machine is, so
    keeping it would make the median depend on that too.
    """
    return statistics.median(values[1:] if len(values) > 1 else values)


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer(calls: list, spans: list, import_times: list[float]) -> dict:
    """calls: [metric, seconds, exit codes, output bytes, run id]; spans: see tracing.Tracer."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    by_run = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
        by_run[s[5]].append(s)

    def inclusive(run_spans, name):
        total = 0.0
        for s in run_spans:
            # cov_matrix builds through cross_cov; count that time once, as cov_matrix
            if s[1] == name and not (name == "kernels.cross_cov" and by_id.get(s[4], [None, None])[1] == "kernels.cov_matrix"):
                total += s[3] - s[2]
        return total

    per_command = defaultdict(lambda: defaultdict(list))  # command -> metric -> values per call
    fits = []
    for metric, _seconds, _codes, size, run_id in calls:
        run_spans = by_run[run_id]
        values = per_command[metric]
        for key, name in LAYER_SPANS.items():
            values[key].append(inclusive(run_spans, name))
        roots = [s for s in run_spans if s[4] is None]
        values[f"cli.{metric}.self_s"].append(
            sum((r[3] - r[2]) - sum(c[3] - c[2] for c in children[r[0]]) for r in roots)
        )
        values[f"cli.{metric}.bytes"].append(size)
        loads = [s[6]["bytes"] for s in run_spans if s[1] == "serialize.load_model"]
        if loads:
            values["serialize.model_json_bytes"].append(statistics.median(loads))
        restarts = [s for s in run_spans if s[1] == "hyperfit.minimize"]
        if restarts:
            fits.append(restarts)

    metrics = {"import.mortgp_s": _m(statistics.median(import_times), "s")}
    for key in LAYER_SPANS:
        metrics[key] = _m(sum(warm_median(per_command[c][key]) for c in COMMANDS if c in per_command), "s")
    for c in COMMANDS:
        metrics[f"cli.{c}.self_s"] = _m(warm_median(per_command[c][f"cli.{c}.self_s"]), "s")
        metrics[f"cli.{c}.bytes"] = _m(warm_median(per_command[c][f"cli.{c}.bytes"]), "bytes")
    sizes = [v for c in COMMANDS for v in per_command[c]["serialize.model_json_bytes"]]
    metrics["serialize.model_json_bytes"] = _m(statistics.median(sizes), "bytes")

    lml = [s[3] - s[2] for s in spans if s[1] == "gp.log_marginal_likelihood" and s[5] < 0]
    metrics["gp.log_marginal_likelihood_s"] = _m(warm_median(lml), "s")

    evals, iters, eval_ms, at_best = [], [], [], []
    for restarts in fits:
        nfev = sum(s[6]["nfev"] for s in restarts)
        evals.append(nfev)
        iters.append(sum(s[6]["nit"] for s in restarts))
        eval_ms.append(1e3 * sum(s[3] - s[2] for s in restarts) / nfev)
        best = min(s[6]["fun"] for s in restarts)
        at_best.append(sum(s[6]["fun"] <= best + BEST_TOL for s in restarts) / len(restarts))
    metrics["hyperfit.evals"] = _m(statistics.median(evals), "count")
    metrics["hyperfit.iterations"] = _m(statistics.median(iters), "count")
    metrics["hyperfit.eval_ms"] = _m(warm_median(eval_ms), "ms")
    metrics["hyperfit.restarts_at_best"] = _m(statistics.median(at_best), "ratio")
    return metrics
