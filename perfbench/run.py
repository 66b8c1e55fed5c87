"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` instruments the layers and reports
the per-layer metrics instead, and ``--trace-out FILE`` also writes the
spans as a Chrome trace. Progress and a summary go to standard error.

Every run is hermetic: scratch files, saved artifacts and any schedule
cache live in a private directory under ``.perfbench/`` that is removed
on exit, and no bytecode is written.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import RunState, median, process_age_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the spans here (Chrome trace JSON)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _hermetic(tmp: Path) -> None:
    """Point every scratch location the program may use into ``tmp``."""
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    # the pipeline runs without a schedule cache; should anything reach
    # for the default one, it gets an empty private directory
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "schedule-cache")
    os.environ["REPRO_NO_CACHE"] = "1"


def measure(args: argparse.Namespace, tmp: Path) -> dict:
    from tracing import Tracer, instrument
    from workloads import (
        END_TO_END,
        PER_LAYER,
        WORKLOADS,
        Run,
        compile_checks,
        compile_phase,
        infer_phase,
        serve_phase,
    )

    state = RunState(seed=args.seed, seconds=args.seconds)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        instrument(tracer)
    run = Run(state=state, tmp=tmp, tracer=tracer)
    factories = WORKLOADS[args.workload]()
    # set-up so far: interpreter start, imports, instrumentation
    state.setup_s += process_age_s()

    models = compile_phase(run, factories)
    compile_checks(run, factories, models)
    if len(models) == len(factories):
        infer_phase(run, models)
        del models
        serve_phase(run)
    state.metrics["setup_s"] = state.setup_s
    state.layers["host.steal_s"] = state.steal_s
    state.layers["host.probe_ms"] = median(state.probes) * 1e3

    wanted = PER_LAYER if tracer is not None else END_TO_END
    source = state.layers if tracer is not None else state.metrics
    missing = sorted(set(wanted) - set(source))
    for name in missing:
        state.problem(f"metric {name} was not measured")
    for p in state.problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(
        f"{args.workload}: setup {state.setup_s:.2f} s, steal {state.steal_s:.2f} s, "
        f"{state.attempted} ops, {state.failed} failed",
        file=sys.stderr,
    )
    if tracer is not None:
        print(
            "traced end-to-end: "
            + ", ".join(f"{k}={v:.4g}" for k, v in sorted(state.metrics.items())),
            file=sys.stderr,
        )
        if args.trace_out:
            tracer.write(args.trace_out)
    return {
        "correct": state.correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {
            name: {"value": float(source[name]), "unit": unit}
            for name, unit in wanted.items()
            if name in source
        },
    }


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        _hermetic(tmp)
        result = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    print(f"wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
