"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/child.py solve-3d    --seed N --trace 0|1 --out RESULT.json
    python3 perfbench/child.py sequence-2d --seed N --trace 0|1 --out RESULT.json
    python3 perfbench/child.py cli         --trace 0|1 --out RESULT.json -- ARGS...

The library workloads build their inputs from the seed, hand llap only the
generated fields, time each phase and check the verdicts.  ``cli`` runs one
``llap`` command through the package's click entry point, as
``python -m llap.cli ARGS`` does, and records its exit code.  Times are
``time.monotonic`` stamps, which share one clock with the parent process.
The result file also carries the process's peak RSS and, when traced, the
per-function table and counters of ``tracer.Tracer``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _inputs(rng, grid):
    """Saturating sine, l = 0.1, forced by a 0.3 Gaussian bump centred in [-1, 1]^d."""
    import numpy as np

    import llap

    centre = rng.uniform(-1.0, 1.0, size=grid.d)
    offset = llap.sample(
        grid,
        lambda *xs: 0.3 * np.exp(-sum((x - c) ** 2 for x, c in zip(xs, centre)) / 2.0),
    )
    return llap.make_nonlinearity("saturating_sine", lip=0.1, offset=offset)


def solve_3d(seed: int, out: dict) -> None:
    import numpy as np

    import llap

    tol = 1e-10
    rng = np.random.default_rng(seed)
    grid = llap.make_grid(3, 12.0, 96)
    spec = llap.SymbolSpec(shift=0.0, eta=llap.default_eta(grid, 0.0))
    kernel = llap.make_kernel(
        "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, grid
    )
    nonlin = _inputs(rng, grid)
    v0 = llap.RealField(rng.normal(0.0, 0.01, grid.shape), grid)
    out["built"] = time.monotonic()

    t0 = time.monotonic()
    cert = llap.certify(kernel, nonlin, spec, eps_user=0.1, seed=seed)
    t1 = time.monotonic()
    report = llap.picard_solve(
        kernel, nonlin, spec, v0=v0, tol=tol, max_iter=200, certificate=cert
    )
    t2 = time.monotonic()
    out["phases"] = {"certify_s": t1 - t0, "solve_s": t2 - t1}
    out["ops"] = {
        "certify": bool(cert.passed),
        "solve": bool(report.converged and report.residual <= tol),
    }
    out["facts"] = {"iterations": report.iterations, "residual": report.residual}


def sequence_2d(seed: int, out: dict) -> None:
    import numpy as np

    import llap

    rng = np.random.default_rng(seed)
    grid = llap.make_grid(2, 20.0, 256)
    spec = llap.SymbolSpec(shift=0.0, eta=llap.default_eta(grid, 0.0))
    kernel = llap.make_kernel(
        "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 0.6, "shift": 0.0}, grid
    )
    nonlin = _inputs(rng, grid)
    schedule = llap.Schedule(
        kind="truncate", members=6, r_start=6.0, r_stop=14.0, cutoff_width=2.0
    )
    out["built"] = time.monotonic()

    t0 = time.monotonic()
    seq = llap.make_sequence(kernel, schedule, spec, taper_width=0.5)
    study = llap.run_sequence(seq, nonlin, spec, eps=0.1, tol=1e-10, max_iter=300)
    table = llap.verify_lemmaA2(seq, spec, lip=nonlin.lip, eps=0.1)
    t1 = time.monotonic()
    out["phases"] = {"sequence_s": t1 - t0}
    out["ops"] = {
        "make_sequence": len(seq.members) == schedule.members,
        "run_sequence": bool(study.rows) and all(r.bound_ok for r in study.rows),
        "verify_lemmaA2": bool(table.passed),
    }
    out["facts"] = {
        "limit_iterations": study.limit_report.iterations,
        "final_sol_dist": study.rows[-1].sol_dist,
    }


def cli(argv: list[str], out: dict) -> None:
    import llap.cli
    import llap.config as config

    build = config.RunConfig.nonlinearity

    def marked(self, grid):
        # The nonlinearity is the last object every command builds.
        result = build(self, grid)
        out.setdefault("built", time.monotonic())
        return result

    config.RunConfig.nonlinearity = marked
    try:
        llap.cli.main(args=argv, prog_name="llap", standalone_mode=True)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    out["exit_code"] = code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("solve-3d", "sequence-2d", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--out", required=True)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]

    out: dict = {}
    t0 = time.perf_counter()
    if args.workload == "cli":
        import llap.cli  # noqa: F401
    else:
        import llap  # noqa: F401
    out["import_s"] = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    if args.workload == "cli":
        cli(args.argv, out)
    elif args.workload == "solve-3d":
        solve_3d(args.seed, out)
    else:
        sequence_2d(args.seed, out)
    out["done"] = time.monotonic()
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["functions"] = tracer.functions()
        out["counters"] = tracer.counters()
        out["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
