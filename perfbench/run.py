#!/usr/bin/env python3
"""Benchmark of llap: time to a certified solution, and the memory it takes.

    python3 perfbench/run.py --workload solve-3d --seed 7 --seconds 40 --trace 0

Run from the root of a checkout; llap is imported from ``src`` through
PYTHONPATH.  Each repetition runs in fresh child processes, one at a time,
as long as another one fits in ``--seconds`` (at least one repetition), and
the run reports medians over its repetitions.  Every repetition checks its
verdicts; a wrong verdict, exit code or crash counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced repetitions alternate; the line
carries the per-layer metrics, and the tracing overhead is the difference of
their median wall times.  All spans of the run are written to
``.bench_out/trace-<workload>-seed<seed>.json``, and the children's output
to ``.bench_out/<workload>.log``.  ``--workload all`` runs the three
workloads in turn and prints every end-to-end metric by name.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
# Every child must end by then, so that a run exits within 180 s.
RUN_LIMIT_S = 165.0

WORKLOADS = ("solve-3d", "sequence-2d", "cli-1d")

# (command, shipped config, expected exit code, verdict file, expected lines)
CLI_COMMANDS = (
    ("certify", "reference", 0, "certificate.txt", ("passed = true",)),
    ("solve", "reference", 0, "solve_summary.txt", ("converged = true",)),
    (
        "sequence",
        "reference",
        0,
        "sequence_summary.txt",
        ("all_bounds_ok = true", "lemma_passed = true"),
    ),
    ("verify", "reference", 0, "verify_report.csv", ()),
    ("certify", "raw_gaussian", 3, "certificate.txt", ("passed = false",)),
    ("solve", "projected_gaussian", 0, "solve_summary.txt", ("converged = true",)),
)

# The end-to-end metric each workload reports as work_s.
WORK_PHASE = {"solve-3d": "certify_solve_s", "sequence-2d": "sequence_s", "cli-1d": "cli_command_s"}

UNITS = {
    "setup_s": "s",
    "work_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "certify_s": "s",
    "solve_s": "s",
    "sequence_s": "s",
    "cli_command_s": "s",
    "failed_ops": "count",
}

# Per-layer metrics: (name, unit, traced function names whose self time or
# calls it sums).  Times are named only for functions that every workload
# calls, so that none reads 0 on a workload that bypasses it.
LAYER_TIMES = (
    ("grid.forward_ft.self_s", ("grid.forward_ft",)),
    ("grid.inverse_ft.self_s", ("grid.inverse_ft", "grid.inverse_ft_real")),
    ("grid.nudft.self_s", ("grid.nudft",)),
    ("kernels.gain_eval.self_s", ("kernels.gain_eval",)),
    ("kernels.hat_on_sphere.self_s", ("kernels.hat_on_sphere",)),
    ("nonlinearity.eval_F.self_s", ("nonlinearity.eval_F",)),
    ("solver.equation_residual.self_s", ("solver.equation_residual",)),
    ("solver.picard_solve.self_s", ("solver.picard_solve",)),
)
# Layers every workload enters; <layer>.self_s sums the self time of all
# their traced functions, the Bessel atoms inside project_orthogonal included.
LAYER_MODULES = ("grid", "kernels", "nonlinearity", "solver")
LAYER_CALLS = (
    ("grid.forward_ft.calls", ("grid.forward_ft",)),
    ("grid.inverse_ft.calls", ("grid.inverse_ft", "grid.inverse_ft_real")),
    ("grid.nudft.calls", ("grid.nudft",)),
    ("kernels.gain_eval.calls", ("kernels.gain_eval",)),
    ("kernels.hat_on_sphere.calls", ("kernels.hat_on_sphere",)),
    ("kernels.project_orthogonal.calls", ("kernels.project_orthogonal",)),
    ("kernels.make_sequence.calls", ("kernels.make_sequence",)),
    ("sequence.run_sequence.calls", ("sequence.run_sequence",)),
    ("sequence.verify_lemmaA2.calls", ("sequence.verify_lemmaA2",)),
    ("nonlinearity.eval_F.calls", ("nonlinearity.eval_F",)),
    ("solver.equation_residual.calls", ("solver.equation_residual",)),
    ("solver.picard_solve.calls", ("solver.picard_solve",)),
    ("config.load_config.calls", ("config.load_config",)),
    ("fieldio.atomic_write_text.calls", ("fieldio.atomic_write_text",)),
    ("fieldio.dump_field.calls", ("fieldio.dump_field",)),
    ("checks.run_property_suite.calls", ("checks.run_property_suite",)),
    ("checks.ft_selftest.calls", ("checks.ft_selftest",)),
)


class Deadline(Exception):
    """A child did not finish before the run's time limit."""


def run_child(argv: list[str], tmp: Path, log, deadline: float) -> dict:
    """Run child.py once; return its result with spawn and exit stamps."""
    result = tmp / f"child-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "child.py"), *argv[:1], "--out", str(result), *argv[1:]]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise Deadline(" ".join(argv)) from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    end = time.monotonic()
    out = json.loads(result.read_text()) if result.exists() else {}
    out.update(spawn=spawn, exit=end, returncode=code)
    return out


def library_rep(
    workload: str, seed: int, trace: int, run_id: str, tmp: Path, log, deadline: float
) -> dict:
    child = run_child(
        [workload, "--seed", str(seed), "--trace", str(trace), "--run-id", run_id],
        tmp, log, deadline,
    )
    ops = child.get("ops", {})
    expected = 2 if workload == "solve-3d" else 3
    phases = dict(child.get("phases", {}))
    if workload == "solve-3d" and phases:
        phases["certify_solve_s"] = phases["certify_s"] + phases["solve_s"]
    return {
        "children": [child],
        "setup_s": [child["built"] - child["spawn"]] if "built" in child else [],
        "phases": phases,
        "total_s": child["exit"] - child["spawn"],
        "peak_rss_mb": child.get("maxrss_mb", 0.0),
        "attempted": expected,
        "failed": expected - sum(
            1 for ok in ops.values() if ok and child["returncode"] == 0
        ),
    }


def cli_configs(seed: int, tmp: Path) -> dict[str, Path]:
    """The shipped configs with the seed and a seeded bump centre inserted."""
    centre = random.Random(seed).uniform(-1.0, 1.0)
    paths = {}
    for name in sorted({c[1] for c in CLI_COMMANDS}):
        text = (ROOT / "configs" / f"{name}.cfg").read_text()
        text, n_seed = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
        text, n_centre = re.subn(
            r"(?m)^\[nonlinearity\]\s*$", f"[nonlinearity]\nh_center = {centre!r}", text
        )
        if n_seed != 1 or n_centre != 1:
            raise SystemExit(f"configs/{name}.cfg: cannot insert the seed")
        paths[name] = tmp / f"{name}.cfg"
        paths[name].write_text(text)
    return paths


def _verdict_ok(out_dir: Path, spec: tuple) -> bool:
    command, _, _, filename, lines = spec
    path = out_dir / filename
    if not path.exists():
        return False
    text = path.read_text()
    if command == "verify":
        rows = text.splitlines()[1:]
        return bool(rows) and all(row.split(",")[1] == "true" for row in rows)
    present = {line.strip() for line in text.splitlines()}
    return all(line in present for line in lines)


def cli_rep(seed: int, trace: int, run_id: str, tmp: Path, log, deadline: float) -> dict:
    configs = cli_configs(seed, tmp)
    children = []
    failed = 0
    for i, spec in enumerate(CLI_COMMANDS):
        command, cfg, code, _, _ = spec
        out_dir = tmp / f"out-{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        child = run_child(
            ["cli", "--trace", str(trace), "--run-id", run_id, "--",
             command, str(configs[cfg]), "--out-dir", str(out_dir)],
            tmp,
            log,
            deadline,
        )
        children.append(child)
        ok = child["returncode"] == 0 and child.get("exit_code") == code
        failed += not (ok and _verdict_ok(out_dir, spec))
    latencies = [c["exit"] - c["spawn"] for c in children]
    return {
        "children": children,
        "setup_s": [c["built"] - c["spawn"] for c in children if "built" in c],
        "phases": {"cli_command_s": statistics.median(latencies)},
        "total_s": children[-1]["exit"] - children[0]["spawn"],
        "peak_rss_mb": max(c.get("maxrss_mb", 0.0) for c in children),
        "attempted": len(CLI_COMMANDS),
        "failed": failed,
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Repeat the workload until `seconds` have passed; collect every rep."""
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    # Children's output goes to one log per workload, kept for diagnosis.
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir, open(OUT / f"{workload}.log", "wb") as log:
        tmp = Path(tmpdir)
        while True:
            # Traced and untraced repetitions swap places every round, so
            # that neither always runs first after the previous workload.
            flags = ((0, 1) if len(plain) % 2 == 0 else (1, 0)) if trace else (0,)
            for flag in flags:
                run_id = f"{workload}-seed{seed}-rep{len(plain) + len(traced)}"
                if workload == "cli-1d":
                    rep = cli_rep(seed, flag, run_id, tmp, log, deadline)
                else:
                    rep = library_rep(workload, seed, flag, run_id, tmp, log, deadline)
                (traced if flag else plain).append(rep)
            # Start another repetition only if it should end within the run.
            elapsed = time.monotonic() - start
            if elapsed * (1.0 + 1.0 / len(plain)) > min(seconds, RUN_LIMIT_S - 15.0):
                break
    return {"plain": plain, "traced": traced}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(workload: str, reps: list[dict]) -> dict[str, float]:
    phases = {k: _median([r["phases"][k] for r in reps if k in r["phases"]])
              for k in ("certify_s", "solve_s", "sequence_s", "cli_command_s")
              if any(k in r["phases"] for r in reps)}
    return {
        "setup_s": _median([s for r in reps for s in r["setup_s"]]),
        "work_s": _median([r["phases"][WORK_PHASE[workload]] for r in reps
                           if WORK_PHASE[workload] in r["phases"]]),
        "total_s": _median([r["total_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        **phases,
        "failed_ops": sum(r["failed"] for r in reps),
    }


def _rep_functions(rep: dict) -> dict[str, dict[str, float]]:
    """Calls and self time per traced function, summed over a rep's processes."""
    functions: dict[str, dict[str, float]] = {}
    for child in rep["children"]:
        for name, row in child.get("functions", {}).items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
    return functions


def _rep_layers(rep: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition, summed over its processes."""
    functions = _rep_functions(rep)
    counters: dict[str, float] = {}
    for child in rep["children"]:
        for name, value in child.get("counters", {}).items():
            if name == "retained_iterate_bytes":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def total(names, key):
        return sum(functions.get(n, {}).get(key, 0) for n in names)

    out = {name: total(names, "self_s") for name, names in LAYER_TIMES}
    out.update({
        f"{layer}.self_s": sum(row["self_s"] for name, row in functions.items()
                               if name.startswith(layer + "."))
        for layer in LAYER_MODULES
    })
    out.update({name: total(names, "calls") for name, names in LAYER_CALLS})
    iterations = counters.get("iterations", 0)
    out.update({
        "solver.step_s": counters.get("picard_s", 0.0) / iterations if iterations else 0.0,
        "grid.fft.points": counters.get("fft_points", 0),
        "grid.nudft.points": counters.get("nudft_points", 0),
        "kernels.nudft_repeat_ratio": counters.get("nudft_evaluations", 0)
        / max(1, counters.get("nudft_distinct", 0)),
        "kernels.ghat_repeat_ratio": counters.get("ghat_transforms", 0)
        / max(1, counters.get("ghat_distinct", 0)),
        "solver.iterations": iterations,
        "solver.ffts_per_iteration": (
            counters.get("picard_ffts", 0) / iterations if iterations else 0.0
        ),
        "solver.retained_iterate_bytes": counters.get("retained_iterate_bytes", 0),
        "fieldio.bytes_written": counters.get("bytes_written", 0),
    })
    return out


PER_LAYER_UNITS = {
    **{name: "s" for name, _ in LAYER_TIMES},
    **{f"{layer}.self_s": "s" for layer in LAYER_MODULES},
    **{name: "count" for name, _ in LAYER_CALLS},
    "import_s": "s",
    "trace_overhead_s": "s",
    "solver.step_s": "s",
    "grid.fft.points": "count",
    "grid.nudft.points": "count",
    "kernels.nudft_repeat_ratio": "ratio",
    "kernels.ghat_repeat_ratio": "ratio",
    "solver.iterations": "count",
    "solver.ffts_per_iteration": "fft/iter",
    "solver.retained_iterate_bytes": "bytes",
    "fieldio.bytes_written": "bytes",
}


def per_layer(runs: dict) -> tuple[dict[str, float], bool]:
    """Medians over traced reps; also whether the counts repeated exactly."""
    values = [_rep_layers(rep) for rep in runs["traced"]]
    out = {name: _median([v[name] for v in values]) for name in values[0]}
    exact = all(
        v[name] == values[0][name]
        for v in values
        for name, unit in PER_LAYER_UNITS.items()
        if unit != "s" and name in v
    )
    children = [c for rep in runs["plain"] + runs["traced"] for c in rep["children"]]
    out["import_s"] = _median([c["import_s"] for c in children if "import_s" in c])
    out["trace_overhead_s"] = _median([r["total_s"] for r in runs["traced"]]) - _median(
        [r["total_s"] for r in runs["plain"]]
    )
    return out, exact


def write_trace(workload: str, seed: int, runs: dict) -> Path:
    """All spans of the run and each traced rep's per-function table."""
    path = OUT / f"trace-{workload}-seed{seed}.json"
    reps = []
    for rep in runs["traced"]:
        reps.append({
            "processes": [
                {"functions": c.get("functions", {}), "counters": c.get("counters", {})}
                for c in rep["children"]
            ],
            "spans": [s for c in rep["children"] for s in c.get("spans", [])],
        })
    path.write_text(json.dumps({"workload": workload, "seed": seed, "reps": reps}))
    return path


def function_table(runs: dict) -> list[str]:
    """Calls and median self time of every traced function, busiest first."""
    rows: dict[str, list[dict[str, float]]] = {}
    for rep in runs["traced"]:
        for name, row in _rep_functions(rep).items():
            rows.setdefault(name, []).append(row)
    table = sorted(
        ((name, vals[0]["calls"], _median([v["self_s"] for v in vals]))
         for name, vals in rows.items()),
        key=lambda r: -r[2],
    )
    return [f"  {name:<40} calls {calls:>7}  self {self_s:9.4f} s" for name, calls, self_s in table]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(workload: str, seed: int, seconds: float, trace: int) -> dict:
    runs = measure(workload, seed, seconds, trace)
    attempted = sum(r["attempted"] for r in runs["plain"] + runs["traced"])
    failed = sum(r["failed"] for r in runs["plain"] + runs["traced"])
    e2e = end_to_end(workload, runs["plain"])
    print(f"{workload} seed {seed}: {len(runs['plain'])} untraced repetitions, "
          f"{len(runs['traced'])} traced")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.4f} {UNITS[name]}")
    print("  total_s of each repetition: "
          + " ".join(f"{r['total_s']:.3f}" for r in runs["plain"]))
    if trace:
        layers, exact = per_layer(runs)
        print(f"  counts repeat exactly across traced repetitions: {exact}")
        print(f"  tracing overhead: {layers['trace_overhead_s']:.4f} s on "
              f"{e2e['total_s']:.4f} s untraced")
        print(*function_table(runs), sep="\n")
        print(f"  spans written to {write_trace(workload, seed, runs).relative_to(ROOT)}")
        metrics = {name: metric(value, PER_LAYER_UNITS[name]) for name, value in layers.items()}
        correct = failed == 0 and exact
    else:
        metrics = {name: metric(e2e[name], UNITS[name])
                   for name in ("setup_s", "work_s", "total_s", "peak_rss_mb")}
        correct = failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = ("src/llap/__init__.py", "configs/reference.cfg")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"run from the root of an llap checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = report(args.workload, args.seed, args.seconds, args.trace)
        else:
            results = {w: report(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()},
            }
    except Deadline as e:
        print(f"a child outran the {RUN_LIMIT_S:.0f} s run limit: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
