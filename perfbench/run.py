"""mkfilter benchmark: drives ``mkfilter.cli.main(argv)`` in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mkf-deep --seed 0 --seconds 15 --trace 0

One closed-loop client runs the workload's fixed case set again and again
(one pass after another) for ``--seconds`` seconds, after one untimed
warm-up pass. Inputs are phantoms generated from ``--seed`` and written to
files during set-up. Every pass's outputs are checked outside the timed
region. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the same metrics as a table, the machine, and every pass.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics: spans around the calls into each module (see
``tracer.py``), plus ``trace.overhead_s``. Spans are written to
``perfbench/_work/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / "_work"

DEFAULT_SEED = 0
SETUP_REPEATS = 15
MIN_PASSES = 3          # per kind of pass, whatever --seconds says
REL_TOL = 1e-6          # reference mae/ssim on the default seed; tree counts are exact

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mkfilter; "
                "print(time.perf_counter() - t)")

# The calibration unit's time at the reference speed: its fast-state time
# on a 2-core Intel Xeon (Sapphire Rapids) KVM guest, Python 3.11, numpy 2.4.
CALIBRATION_REF_S = 0.0035
CALIBRATION_REPEATS = 10


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared host the guest's speed drifts by half both ways within
# seconds: the same pass took 2.1 s and 3.6 s a few minutes apart, with the
# guest's CPU time equal to its wall time (the host slows the vCPU; nothing
# is stolen). The slowdown hits every kind of code mkfilter runs, so a small
# fixed calibration unit measures it. The unit runs only while mkfilter is
# idle: before and after each command, outside the timed region, so the
# program's own load (threads included) cannot move it. Each command's
# seconds are scaled to the reference speed by the mean speed of the samples
# on either side of it. The raw seconds are printed beside them.


def _calibration_unit() -> None:
    """About equal parts of the three kinds of code mkfilter spends time in:
    small-array numpy calls (an EM fit, per-node statistics), whole-image
    numpy expressions (TV, CF, the window engine) and plain Python on ints
    and containers (the flood fill)."""
    import numpy as np

    x = np.linspace(0.0, 255.0, 200)
    n = np.ones(200)
    mu = np.array([85.0, 170.0])
    sigma = np.array([60.0, 60.0])
    for _ in range(50):
        log_p = (-np.log(sigma)[:, None]
                 - 0.5 * ((x[None, :] - mu[:, None]) / sigma[:, None]) ** 2)
        top = log_p.max(axis=0)
        resp = np.exp(log_p - top - np.log(np.exp(log_p - top).sum(axis=0)))
        mu = (n * resp * x).sum(axis=1) / (n * resp).sum(axis=1)
    grid = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    for _ in range(12):
        weight = np.exp(-(grid[:, 1:] - grid[:, :-1]) ** 2)
        (weight * grid[:, 1:]).sum()
    table: dict[int, int] = {}
    for i in range(12000):
        table[i % 97] = table.get(i % 97, 0) + i


def speed() -> float:
    """The machine's speed relative to the reference: CALIBRATION_REF_S over
    the mean time of CALIBRATION_REPEATS runs of the calibration unit."""
    started = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        _calibration_unit()
    return CALIBRATION_REF_S * CALIBRATION_REPEATS / (time.perf_counter() - started)


# ---------------------------------------------------------------------------
# machine and provenance


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor())
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    caches = {}
    for index in sorted(cache.glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {"nproc": os.cpu_count(), "cpu": model, **caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit()}


# ---------------------------------------------------------------------------
# set-up and passes


def import_seconds() -> float:
    """Time ``import mkfilter`` in a fresh interpreter (startup excluded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, seed: int, work: Path):
    """Set up SETUP_REPEATS times; return the last inputs and the median
    raw set-up time."""
    took = []
    for i in range(SETUP_REPEATS):
        in_dir = work / f"in{i}"
        in_dir.mkdir(parents=True)
        imported = import_seconds()
        started = time.perf_counter()
        inputs = workload.make_inputs(seed, in_dir)
        took.append(imported + time.perf_counter() - started)
    return inputs, statistics.median(took)


def run_pass(workload, inputs, out_dir: Path, tracer=None) -> dict:
    """Run every command of the case set once, then check the outputs.
    Each command's raw wall and CPU seconds are kept with its speed scale,
    the mean of the speed samples taken just before and just after it."""
    from mkfilter.cli import main

    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    commands = workload.commands(inputs, out_dir)
    first_span = len(tracer.spans) if tracer else 0
    crashed = {}
    timed = []  # per command: (id, wall seconds, CPU seconds, speed scale)
    speed_before = speed()
    if tracer:
        tracer.install()
    try:
        for command_id, argv in commands:
            started, cpu_started = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    if tracer:
                        tracer.case = command_id
                        code = tracer.run("cli", main, argv)
                    else:
                        code = main(argv)
            except (Exception, SystemExit) as exc:  # a crash fails its cases
                code = repr(exc)
            took = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            speed_after = speed()
            timed.append((command_id, took, cpu, (speed_before + speed_after) / 2))
            speed_before = speed_after
            if code != 0:
                crashed[command_id] = f"exit {code}"
    finally:
        if tracer:
            tracer.uninstall()
    results = workload.check(inputs, out_dir)
    for command_id, problem in crashed.items():
        for case in workload.case_ids(inputs, command_id):
            results[case] = problem
    spans = tracer.spans[first_span:] if tracer else []
    wall = sum(took for _, took, _, _ in timed)
    scaled_wall = sum(took * scale for _, took, _, scale in timed)
    return {"wall_s": wall, "scale": scaled_wall / wall if wall else 0.0,
            "commands": timed, "results": results, "spans": spans}


def timed_passes(workload, inputs, work: Path, seconds: float, tracer):
    """Untraced passes only, or (with a tracer) untraced and traced passes
    in turn, until ``seconds`` have gone and each kind ran MIN_PASSES."""
    plain, traced = [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or len(plain) < MIN_PASSES
           or (tracer and len(traced) < MIN_PASSES)):
        use_tracer = tracer if tracer and len(traced) < len(plain) else None
        done = run_pass(workload, inputs, work / "out", use_tracer)
        (traced if use_tracer else plain).append(done)
    return plain, traced


# ---------------------------------------------------------------------------
# checks against the reference of the default seed


def reference_mismatches(workload_name: str, scores: dict,
                         trees: list) -> tuple[dict[str, str], list[str]]:
    """Cases whose scores differ from the reference (they count as failed),
    and problems with the tree counts (``None`` in an untraced run)."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    ref = reference["workloads"][workload_name]
    tree_problems = []
    if trees is not None and trees != ref["trees"]:
        tree_problems.append(f"tree (nodes, leaves) {trees} != reference {ref['trees']}")
    cases = {}
    for case, (ref_mae, ref_ssim) in ref["scores"].items():
        got = scores.get(case)
        if not isinstance(got, tuple):
            continue  # already failed its own check
        for what, value, expected in (("mae", got[0], ref_mae), ("ssim", got[1], ref_ssim)):
            if abs(value - expected) > REL_TOL * abs(expected):
                cases.setdefault(case, f"{what} {value!r} != reference {expected!r}")
    return cases, tree_problems


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's scores and tree counts "
                             "in reference.json instead of checking them")
    args = parser.parse_args(argv)

    if not (SRC / "mkfilter" / "__init__.py").is_file():
        print(f"error: no mkfilter sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer, combine_passes, pass_layers, probe_seconds
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.write_reference and (args.seed != DEFAULT_SEED or not args.trace):
        print(f"error: --write-reference needs --seed {DEFAULT_SEED} (the seed "
              f"reference.json is for) and --trace 1 (for the tree counts)",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        inputs, setup_raw = set_up(workload, args.seed, work)
        warm = run_pass(workload, inputs, work / "out")
        plain, traced = timed_passes(workload, inputs, work, args.seconds,
                                     Tracer() if args.trace else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scores = warm["results"]
    # tree counts only exist in traced passes; the reference checks them there
    trees = ([[s["nodes"], s["leaves"]] for s in traced[0]["spans"]
              if s["name"] == "clustering.tree"] if traced else None)
    problems, mismatched = [], {}
    if args.write_reference:
        write_reference(args.workload, scores, trees)
    elif args.seed == DEFAULT_SEED:
        mismatched, problems = reference_mismatches(args.workload, scores, trees)
    attempted = failed = 0
    for done in plain + traced:
        attempted += len(done["results"])
        for case, result in sorted(done["results"].items()):
            if isinstance(result, tuple) and case in mismatched:
                result = mismatched[case]
            if not isinstance(result, tuple):
                failed += 1
                problems.append(f"{case}: {result}")
    if any(done["results"] != scores for done in plain + traced):
        problems.append("scores differ between passes")

    def scaled_sum(column):
        """Per command, the median over the plain passes of its scaled
        seconds; summed over the commands of the case set."""
        per_command: dict[str, list[float]] = {}
        for done in plain:
            for command in done["commands"]:
                per_command.setdefault(command[0], []).append(
                    command[column] * command[3])
        return sum(statistics.median(v) for v in per_command.values())

    if args.trace:
        metrics, mismatches = combine_passes(
            [pass_layers(p["spans"], p["scale"]) for p in traced])
        problems += mismatches
        # raw seconds of each traced pass, less its probe, minus the plain
        # pass run just before it
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - probe_seconds(t["spans"]) - p["wall_s"]
            for p, t in zip(plain, traced))
        write_spans(args, traced)
    else:
        valid = [v for v in scores.values() if isinstance(v, tuple)] or [(0.0, 0.0)]
        # Most of set-up is the import in a child process. Its time does not
        # follow the speed samples around it (raw imports stayed within
        # 0.42-0.58 s while the samples moved 0.51-0.89), but it does follow
        # the machine's speed over minutes, so it is scaled by the median
        # speed of the run.
        speeds = [command[3] for done in plain for command in done["commands"]]
        metrics = {
            "setup_s": setup_raw * statistics.median(speeds),
            "wall_s": scaled_sum(1),
            "cpu_s": scaled_sum(2),
            "peak_rss_mb": peak_rss_mb,
            "mae_mean": statistics.fmean(m for m, _ in valid),
            "ssim_mean": statistics.fmean(s for _, s in valid),
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in declared[key]}
    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} plain and {len(traced)} traced passes")
    print("pass wall_s, raw: " + " ".join(f"{p['wall_s']:.4f}" for p in plain))
    print("pass speed scale: " + " ".join(f"{p['scale']:.4f}" for p in plain))
    print(f"raw medians: setup_s {setup_raw:.4f} s, pass wall_s "
          f"{statistics.median(p['wall_s'] for p in plain):.4f} s")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} cases)")
    record = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    save_result(args, record, info, plain, traced)
    print(json.dumps(record))
    return 0


def write_reference(workload_name: str, scores: dict, trees: list) -> None:
    path = HERE / "reference.json"
    reference = (json.loads(path.read_text(encoding="utf-8")) if path.is_file()
                 else {"seed": DEFAULT_SEED, "rel_tol": REL_TOL, "workloads": {}})
    reference["workloads"][workload_name] = {
        "scores": {case: list(v) for case, v in sorted(scores.items())},
        "trees": trees,
    }
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


def write_spans(args, traced) -> None:
    out = WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}.jsonl", "w",
              encoding="utf-8") as fh:
        for number, done in enumerate(traced):
            for span in done["spans"]:
                fh.write(json.dumps({"pass": number, **span}) + "\n")


def save_result(args, record, info, plain, traced) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    detail = {**record, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "machine": info,
              "passes": [{"traced": kind == "traced", "wall_s": p["wall_s"],
                          "scale": p["scale"], "commands": p["commands"]}
                         for kind, passes in (("plain", plain), ("traced", traced))
                         for p in passes]}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
