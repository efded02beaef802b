"""The measured process: import mortgp.cli and run the planned commands.

Run by ``run.py`` in a fresh interpreter, so its peak resident memory covers
only the import and the commands, never the generator or the checks.  A
round is one ``fit`` and ``repeats`` passes of the downstream commands;
whole rounds run until the next would end past ``seconds``.  It writes one
JSON result file: the duration of each timed call, its exit codes, the peak
RSS and, when traced, every span.

    python3 bench/worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _output_bytes(argvs) -> int:
    """Total size of the files in the --out directories of these invocations."""
    dirs = {argv[argv.index("--out") + 1] for argv in argvs}
    return sum(f.stat().st_size for d in dirs for f in Path(d).iterdir() if f.is_file())


def _log_marginal_likelihood(modules, spec: dict) -> None:
    """One profiled likelihood evaluation at the hyperparameters fit wrote."""
    data, gp, kernels, means = (modules[m] for m in ("mortgp.data", "mortgp.gp", "mortgp.kernels", "mortgp.means"))
    table = data.load_table(spec["data"])
    if spec["subset"] != "all":
        preset = data.SUBSET_PRESETS.get(spec["subset"])
        table = data.subset(table, preset or data.SubsetSpec.parse(spec["subset"]))
    hp = kernels.KernelHyperparams(**json.loads(Path(spec["model"]).read_text())["hyperparams"])
    gp.log_marginal_likelihood(table, kernels.KernelFamily.SQUARED_EXPONENTIAL, hp, basis=means.MeanBasis.QUADRATIC_AGE)


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import mortgp.cli as cli

    src = Path(plan["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported {cli.__file__}, not the mortgp under {src}")

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(sys.modules)

    calls = []  # [metric, seconds, [exit codes], output bytes, run id]
    counts: dict[str, int] = {}

    def call(group: dict) -> None:
        index = counts.get(group["metric"], 0)
        counts[group["metric"]] = index + 1
        variant = group["variants"][index % len(group["variants"])]
        run_id = len(calls)
        codes = []
        start = time.perf_counter()
        for argv in variant:
            if tracer is None:
                codes.append(cli.main(argv))
                continue
            tracer.run_id = run_id
            with tracer.span(f"cli.{argv[0]}"):
                codes.append(cli.main(argv))
        seconds = time.perf_counter() - start
        size = _output_bytes(variant) if tracer is not None else 0
        calls.append([group["metric"], seconds, codes, size, run_id])
        if tracer is not None and group["metric"] == "fit":
            tracer.run_id = -1 - run_id
            _log_marginal_likelihood(sys.modules, plan["lml"])

    start = time.perf_counter()
    rounds = 0
    while True:
        call(plan["fit"])
        for _ in range(plan["repeats"]):
            for group in plan["groups"]:
                call(group)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > plan["seconds"]:
            break

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
