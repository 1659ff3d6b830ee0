"""Run one workload of the slicegb benchmark and print its metrics.

    python3 perfbench/run.py --workload implicit --seed 1 --seconds 22 --trace 0

Drives ``slicegb.cli.main(argv)`` in this process, one problem at a
time, over whole passes of the workload until the time is up, checks
every output with sympy, and prints one JSON object as the last line
of stdout.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs untraced passes for half the time and traced passes for the other
half, and reports the per-layer metrics.  Inputs go to a temporary
directory in the checkout; results and traces to ``perfbench/results``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import typing
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5


def setup(workload, seed, scratch, setups):
    """Import every slicegb module anew, generate the inputs and write
    them; appends the seconds taken to ``setups`` and returns the CLI
    module and one pass's problems."""
    import workloads

    for name in [n for n in sys.modules if n == "slicegb" or n.startswith("slicegb.")]:
        del sys.modules[name]
    # free the previous import now, so that memory does not grow per
    # pass; typing's caches of annotations like List[Polynomial] would
    # keep every earlier copy of the classes alive
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    directory = scratch / f"inputs{len(setups)}"
    directory.mkdir()
    start = time.perf_counter()
    import slicegb.cli

    problems = workloads.WORKLOADS[workload](seed, directory)
    setups.append(time.perf_counter() - start)
    return slicegb.cli, problems


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(cli, problems):
    """One closed-loop pass: each problem's wall and CPU seconds and
    stdout, and the problems whose call did not exit 0."""
    wall, cpu, outputs, failed = {}, {}, {}, []
    for p in problems:
        out = io.StringIO()
        cpu0, start = _cpu(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(p.argv)
            except Exception as err:  # the CLI promises exit codes, not tracebacks
                code = f"{type(err).__name__}: {err}"
        wall[p.name] = time.perf_counter() - start
        cpu[p.name] = _cpu() - cpu0
        if code != 0:
            failed.append(f"{p.name}: exit {code}")
        outputs[p.name] = out.getvalue()
    return Pass(wall, cpu, outputs, failed)


@dataclass
class Pass:
    wall: dict
    cpu: dict
    outputs: dict
    failed: list

    @property
    def seconds(self):
        return sum(self.wall.values())


def fastest(passes, field):
    """Seconds of one pass on an unloaded machine: the sum over problems
    of each problem's fewest seconds over the passes.  Load from other
    processes only ever slows a problem down, and it comes in bursts."""
    names = getattr(passes[0], field)
    return sum(min(getattr(p, field)[n] for p in passes) for n in names)


def _peak_mb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def measure(workload, seed, scratch, seconds, setups):
    """Whole passes, as many as fit the time best (at least one): another
    pass starts while at least half of it fits.  Each pass runs on a
    fresh set-up, so set-up time is sampled under the same load as the
    passes; ``setups`` collects those seconds.  Peak memory is read
    after the first pass: what one set-up and one pass need, whatever
    the number of passes."""
    passes, start = [], time.perf_counter()
    while True:
        cli, problems = setup(workload, seed, scratch, setups)
        passes.append(run_pass(cli, problems))
        if len(passes) == 1:
            peak_mb = _peak_mb()
        if time.perf_counter() - start + passes[-1].seconds / 2 > seconds:
            return cli, problems, passes, peak_mb


def traced_pass(cli, problems, rec):
    import tracing

    installed = tracing.Installed(rec)
    try:
        return run_pass(cli, problems)
    finally:
        installed.uninstall()


def traced_passes(cli, problems, seconds, workload, seed, scratch):
    """Traced passes while at least half of the next one fits, each with
    its own recorder.  On implicit-j2 an in-process jobs-1 pass comes
    first: its slice timings price the slices later sent to workers, so
    that the fan-out efficiency compares worker time with useful work."""
    import tracing
    import workloads

    reference = None
    if workload == "implicit-j2":
        directory = scratch / "jobs1"
        directory.mkdir()
        reference = tracing.Recorder()
        traced_pass(cli, workloads.implicit(seed, directory, jobs=1), reference)
    passes, start = [], time.perf_counter()
    while True:
        rec = tracing.Recorder(reference.slice_seconds if reference else None)
        passes.append((traced_pass(cli, problems, rec), rec))
        if time.perf_counter() - start + passes[-1][0].seconds / 2 > seconds:
            return passes, reference


def check_outputs(problems, passes):
    """Fault lines, and the number of calls whose output failed a check;
    every distinct output is checked once."""
    verdicts, faults, failed = {}, [], 0
    for one in passes:
        bad = {f.split(":")[0] for f in one.failed}
        for p in problems:
            if p.name in bad:
                continue
            key = (p.name, one.outputs[p.name])
            if key not in verdicts:
                try:
                    verdicts[key] = p.check(one.outputs[p.name], one.outputs)
                except Exception as err:  # output too malformed to parse
                    verdicts[key] = [f"check raised {type(err).__name__}: {err}"]
            faults += [f"{p.name}: {f}" for f in verdicts[key]]
            failed += bool(verdicts[key])
    return faults, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slicegb" / "cli.py").is_file():
        print(f"error: no slicegb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.environ.pop("SLICEGB_SEED", None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = []
        if args.trace:
            cli, problems, plain, peak_mb = measure(
                args.workload, args.seed, scratch, args.seconds / 2, setups)
            traced, reference = traced_passes(cli, problems, args.seconds / 2, args.workload,
                                              args.seed, scratch)
            passes = plain + [result for result, _ in traced]
        else:
            cli, problems, passes, peak_mb = measure(
                args.workload, args.seed, scratch, args.seconds, setups)
        while len(setups) < SETUPS:
            setup(args.workload, args.seed, scratch, setups)
        faults, wrong = check_outputs(problems, passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [f for p in passes for f in p.failed]
    for line in failed + faults:
        print(line, file=sys.stderr)
    if args.trace:
        import tracing

        layers = [tracing.layer_metrics(rec) for _, rec in traced]
        if reference is not None:
            slices = tracing.layer_metrics(reference)
            for m in layers:
                for key in ("min", "median", "max"):
                    m[f"sections.slice_elim_s.{key}"] = slices[f"sections.slice_elim_s.{key}"]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = (fastest([r for r, _ in traced], "wall")
                                       - fastest(plain, "wall"))
        spans = tracing.spans(traced[-1][1])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": fastest(passes, "wall"),
            "cpu_s": fastest(passes, "cpu"),
            "peak_rss_mb": peak_mb,
        }
    units = _units()
    result = {
        "correct": not faults,
        "attempted": len(problems) * len(passes),
        "failed": len(failed) + wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(
        {**result, "pass_s": [p.seconds for p in passes], "faults": failed + faults,
         "problem_s": {n: [p.wall[n] for p in passes] for n in passes[0].wall},
         **({"spans": spans} if args.trace else {})}, indent=1))
    print(json.dumps(result))
    return 0


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
