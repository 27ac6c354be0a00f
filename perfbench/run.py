"""Benchmark of the ``permprob`` command line, end to end and by layer.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures what a user waits for.  Each command of a workload
runs as a fresh ``python -m permprob ...`` child, one at a time, so a
command's time includes interpreter start and import.  Printed per workload:

* ``setup_s``: median wall time of a fresh ``python -c "import permprob"``,
  timed several times before the first pass and once after every pass;
* ``pass_p50_s``: median wall time of one pass over the workload's commands;
* ``cpu_p50_s``: median user+system CPU time of the children of one pass;
* ``peak_rss_mib``: median over passes of the largest child ``ru_maxrss``;
* ``fail_ratio``: failed commands over commands attempted, also carried by
  the ``attempted`` and ``failed`` fields of the result.  A command fails on
  a nonzero exit, a timeout or a failed output check;
* ``pass_p50_ref`` and ``cpu_p50_ref``: the pass's wall and CPU time divided
  by those of a fixed reference program (``REFERENCE``, independent of
  ``permprob``) run after every command of the same pass.

On a shared 2-vCPU virtual machine (Xeon, 2.0 GHz) the host's speed changed
by a quarter within seconds and stayed slow or fast for minutes, moving every
wall and CPU time together: over five seeds the median pass time spread by up
to a third.  The reference runs sample the host's speed at the same moments
as the commands, and the ratios spread by under 5%.  The result line
therefore carries the two ratios in place of ``pass_p50_s`` and
``cpu_p50_s``, which are printed only.

``--trace 1`` gives per-layer numbers instead.  It repeats the same command
lists in this process through ``permprob.cli.main(argv)``, alternating a pass
without tracing and a pass with every public function of every ``permprob``
module wrapped in a span recorder (see ``spans.py``).  The difference of the
two median pass times is the tracing overhead.  Import costs come from
``python -X importtime``.  The spans of every traced pass are written to
``.perfbench_work/spans-<workload>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment of
the children is left as the caller has it, apart from ``PYTHONPATH``, which
points at the checkout's ``src``; they run in ``.perfbench_work``, which holds
no ``permprob.conf``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Command, Workload

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0
IMPORTED = ("permprob", "numpy", "requests")

# Fixed pure-Python work in a fresh interpreter, about 0.1 s, that samples
# the host's speed between commands.  It never imports permprob, so no change
# to the package moves it.
REFERENCE = "s = 0\nfor i in range(300_000):\n    s += i * i\n"

# name -> unit, for the result line; every one is "lower is better".
END_TO_END = {
    "setup_s": "s",
    "pass_p50_ref": "ref",
    "cpu_p50_ref": "ref",
    "peak_rss_mib": "MiB",
}
# Printed with END_TO_END but not in the result line.
PRINTED_ONLY = {"pass_p50_s": "s", "cpu_p50_s": "s", "reference_p50_s": "s"}

PER_LAYER = {
    "setup.permprob_s": "s",
    "setup.numpy_s": "s",
    "setup.requests_s": "s",
    "cli.self_s": "s",
    "probability.exact_counts_s": "s",
    "probability.exact_counts_calls": "count",
    "probability.assignments": "count",
    "probability.assignments_per_s": "1/s",
    "probability.exact_counts_peak_mib": "MiB",
    "probability.compare_grid_self_s": "s",
    "probability.q_eval_s": "s",
    "probability.q_eval_calls": "count",
    "probability.p_eval_s": "s",
    "probability.p_eval_calls": "count",
    "matrices.permanent_ryser_s": "s",
    "matrices.permanent_ryser_calls": "count",
    "matrices.build_family_matrix_s": "s",
    "matrices.build_family_matrix_calls": "count",
    "termdist.e_table_s": "s",
    "termdist.e_table_calls": "count",
    "termdist.e_table_bruteforce_s": "s",
    "termdist.permutations_walked": "count",
    "termdist.w_via_cycles_s": "s",
    "validation.run_offline_checks_self_s": "s",
    "validation.verify_artifact_s": "s",
    "validation.checks_run": "count",
    "validation.checks_failed": "count",
    "sequences.builtin_checks_s": "s",
    "output.render_s": "s",
    "output.bytes_out": "B",
    "svgplot.line_chart_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, failed import)."""


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    cpu: float = 0.0
    ref_wall: float = 0.0
    ref_cpu: float = 0.0
    peak_rss_mib: float = 0.0
    bytes_out: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, cmd: Command, code: int, stdout: str, written: str | None,
               stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            tail = stderr.strip().rsplit("\n", 1)[-1]
            found = [f"exit code {code}" + (f": {tail}" if tail else "")]
        else:
            found = cmd.problems(stdout, written)
        if found:
            self.failed += 1
            self.problems.extend(f"{cmd.key}: {p}" for p in found)
        self.bytes_out += len(stdout.encode("utf-8"))
        if written is not None:
            self.bytes_out += len(written.encode("utf-8"))


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    stdout: str
    stderr: str


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: dict[str, str]
    problems: list[str]


class Checkout:
    """A source checkout whose ``src/permprob`` is the program under test."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.src = self.root / "src"
        if not (self.src / "permprob" / "__init__.py").is_file():
            raise SetupError(f"no package source at {self.src / 'permprob'}")
        self.work = self.root / WORK_DIR
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        # The first import compiles the bytecode cache; it is not timed.
        probe = subprocess.run(
            [sys.executable, "-c", "import permprob; print(permprob.__file__)"],
            cwd=self.work, env=self.env, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        if probe.returncode != 0:
            raise SetupError(f"import permprob failed:\n{probe.stderr}")
        if Path(probe.stdout.strip()).resolve().parent != self.src / "permprob":
            raise SetupError(f"permprob imported from {probe.stdout.strip()}, not {self.src}")

    def remove_outputs(self, workload: Workload) -> None:
        for cmd in workload.commands:
            if cmd.out:
                (self.work / cmd.out).unlink(missing_ok=True)

    def read_output(self, cmd: Command) -> str | None:
        if cmd.out is None:
            return None
        try:
            return (self.work / cmd.out).read_text(encoding="utf-8")
        except OSError:
            return None

    def time_import(self) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import permprob"], cwd=self.work, env=self.env,
            stdin=subprocess.DEVNULL, check=True, timeout=COMMAND_TIMEOUT_S,
        )
        return time.perf_counter() - start

    def import_times(self) -> dict[str, float]:
        """Cumulative import time in seconds of each name in IMPORTED (0 if absent)."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import permprob"],
            cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, check=True, timeout=COMMAND_TIMEOUT_S,
        )
        found = dict.fromkeys(IMPORTED, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].strip()
                if name in found and not found[name]:
                    found[name] = int(parts[1]) / 1e6
        return found

    def run_child(self, args: list[str], slot: int) -> Child:
        """Run ``python args`` to completion, or kill it after COMMAND_TIMEOUT_S."""
        out_path = self.work / f"stdout-{slot}.txt"
        err_path = self.work / f"stderr-{slot}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            lock = threading.Lock()
            exited = False

            def kill() -> None:
                with lock:
                    if not exited:
                        proc.kill()

            timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            timer.start()
            try:
                # Wait without reaping, so the timer can never signal a reused pid.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    exited = True
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            code=proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def e2e_pass(co: Checkout, workload: Workload, order: list[Command]) -> PassResult:
    """Run each command as a child, followed by one run of the reference program."""
    co.remove_outputs(workload)
    result = PassResult()
    children = []
    for slot, cmd in enumerate(order):
        children.append(co.run_child(["-m", "permprob", *cmd.argv], slot))
        ref = co.run_child(["-c", REFERENCE], len(order))
        if ref.code != 0:
            raise SetupError(f"the reference program exited with {ref.code}")
        result.ref_wall += ref.wall
        result.ref_cpu += ref.cpu
    for cmd, child in zip(order, children):
        result.wall += child.wall
        result.cpu += child.cpu
        result.peak_rss_mib = max(result.peak_rss_mib, child.rss_mib)
        result.record(cmd, child.code, child.stdout, co.read_output(cmd), child.stderr)
    return result


def run_e2e(co: Checkout, workload: Workload, seed: int, seconds: float) -> RunResult:
    setup = [co.time_import() for _ in range(SETUP_REPEATS)]
    rng = random.Random(seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(e2e_pass(co, workload, workload.order(rng)))
        setup.append(co.time_import())
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_p50_ref": statistics.median(p.wall / p.ref_wall for p in passes),
        "cpu_p50_ref": statistics.median(p.cpu / p.ref_cpu for p in passes),
        "peak_rss_mib": statistics.median(p.peak_rss_mib for p in passes),
        "pass_p50_s": statistics.median(p.wall for p in passes),
        "cpu_p50_s": statistics.median(p.cpu for p in passes),
        "reference_p50_s": statistics.median(p.ref_wall for p in passes),
    }
    count = f"{len(passes)} passes of {len(workload.commands)} commands"
    notes = {
        "setup_s": f"median of {len(setup)} imports",
        "pass_p50_ref": f"median of {count}",
        "pass_p50_s": f"median of {count}",
        "reference_p50_s": f"{len(workload.commands)} reference runs a pass",
    }
    return _result(passes, metrics, notes)


def _result(passes: list[PassResult], metrics: dict[str, float],
            notes: dict[str, str]) -> RunResult:
    return RunResult(
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        metrics=metrics,
        notes=notes,
        problems=[msg for p in passes for msg in p.problems],
    )


def inproc_pass(co: Checkout, workload: Workload, order: list[Command],
                caches: list) -> PassResult:
    """One pass through ``permprob.cli.main`` in this process, caches cleared per command."""
    cli = sys.modules["permprob.cli"]
    co.remove_outputs(workload)
    runs = []
    start = time.perf_counter()
    for cmd in order:
        for cache in caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(cmd.argv))
            except Exception as exc:  # a traceback is a failed command, not a crash
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = 1
        runs.append((cmd, code, out.getvalue(), err.getvalue()))
    result = PassResult(wall=time.perf_counter() - start)
    for cmd, code, stdout, stderr in runs:
        result.record(cmd, code, stdout, co.read_output(cmd), stderr)
    return result


def _count_assignments(rec: spans.SpanRecorder, counts) -> None:
    rec.counters["probability.assignments"] += 2 ** getattr(counts, "variable_count", 0)


def _count_permutations(rec: spans.SpanRecorder, dist) -> None:
    rec.counters["termdist.permutations_walked"] += math.factorial(getattr(dist, "n", 0))


def _count_checks(rec: spans.SpanRecorder, results) -> None:
    if not isinstance(results, list):
        results = [results]
    rec.counters["validation.checks_run"] += len(results)
    rec.counters["validation.checks_failed"] += sum(
        1 for r in results if not getattr(r, "passed", False)
    )


# Counters taken from the results of wrapped calls.
HOOKS = {
    "probability.exact_counts": _count_assignments,
    "termdist.e_table_bruteforce": _count_permutations,
    "validation.run_offline_checks": _count_checks,
    "validation.verify_artifact": _count_checks,
}


def layer_metrics(rec: spans.SpanRecorder, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a name no longer wrapped reads 0."""
    t = spans.totals(rec)
    c = rec.counters
    exact_s = t.inclusive["probability.exact_counts"]
    return {
        "cli.self_s": t.layer_self("cli"),
        "probability.exact_counts_s": exact_s,
        "probability.exact_counts_calls": t.calls["probability.exact_counts"],
        "probability.assignments": c["probability.assignments"],
        "probability.assignments_per_s": (
            c["probability.assignments"] / exact_s if exact_s else 0.0
        ),
        "probability.compare_grid_self_s": t.self_time["probability.compare_grid"],
        "probability.q_eval_s": t.inclusive["probability.q_eval"],
        "probability.q_eval_calls": t.calls["probability.q_eval"],
        "probability.p_eval_s": t.inclusive["probability.p_eval"],
        "probability.p_eval_calls": t.calls["probability.p_eval"],
        "matrices.permanent_ryser_s": t.inclusive["matrices.permanent_ryser"],
        "matrices.permanent_ryser_calls": t.calls["matrices.permanent_ryser"],
        "matrices.build_family_matrix_s": t.inclusive["matrices.build_family_matrix"],
        "matrices.build_family_matrix_calls": t.calls["matrices.build_family_matrix"],
        "termdist.e_table_s": t.inclusive["termdist.e_table"],
        "termdist.e_table_calls": t.calls["termdist.e_table"],
        "termdist.e_table_bruteforce_s": t.inclusive["termdist.e_table_bruteforce"],
        "termdist.permutations_walked": c["termdist.permutations_walked"],
        "termdist.w_via_cycles_s": t.inclusive["termdist.w_via_cycles"],
        "validation.run_offline_checks_self_s": t.self_time["validation.run_offline_checks"],
        "validation.verify_artifact_s": t.inclusive["validation.verify_artifact"],
        "validation.checks_run": c["validation.checks_run"],
        "validation.checks_failed": c["validation.checks_failed"],
        "sequences.builtin_checks_s": t.inclusive["sequences.builtin_checks"],
        "output.render_s": t.layer_self("output"),
        "output.bytes_out": bytes_out,
        "svgplot.line_chart_s": t.inclusive["svgplot.line_chart"],
        "trace.spans": len(rec),
    }


def run_traced(co: Checkout, workload: Workload, seed: int, seconds: float) -> RunResult:
    if str(co.src) not in sys.path:
        sys.path.insert(0, str(co.src))
    import permprob.cli  # noqa: F401  (the in-process entry point)

    imports = [co.import_times() for _ in range(IMPORTTIME_REPEATS)]
    caches = spans.cached_functions()
    rng = random.Random(seed)
    peaks: list[float] = []
    recorders: list[spans.SpanRecorder] = []
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict[str, float]] = []
    cwd = os.getcwd()
    os.chdir(co.work)
    try:
        # One pass with tracemalloc inside exact_counts only, so that its
        # cost stays out of the timed passes.
        with spans.instrumented(
            lambda name, fn: spans.peak_wrapper(peaks, fn)
            if name == "probability.exact_counts" else None
        ):
            memory_pass = inproc_pass(co, workload, workload.order(rng), caches)
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            order = workload.order(rng)
            untraced.append(inproc_pass(co, workload, order, caches))
            rec = spans.SpanRecorder()
            with spans.instrumented(
                lambda name, fn: spans.span_wrapper(rec, name, fn, HOOKS.get(name))
            ):
                traced.append(inproc_pass(co, workload, order, caches))
            recorders.append(rec)
            layers.append(layer_metrics(rec, traced[-1].bytes_out))
    finally:
        os.chdir(cwd)
    spans.write_spans(str(co.work / f"spans-{workload.name}.tsv.gz"), recorders)

    metrics = {
        f"setup.{name}_s": statistics.median(t[name] for t in imports) for name in IMPORTED
    }
    metrics.update(
        {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    )
    metrics["probability.exact_counts_peak_mib"] = max(peaks, default=0.0)
    metrics["trace.untraced_pass_s"] = statistics.median(p.wall for p in untraced)
    metrics["trace.traced_pass_s"] = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]
    )
    notes = {
        "setup.permprob_s": f"median of {len(imports)} -X importtime runs",
        "trace.traced_pass_s": f"median of {len(traced)} traced passes",
        "trace.untraced_pass_s": f"median of {len(untraced)} passes without tracing",
    }
    return _result([memory_pass, *untraced, *traced], metrics, notes)


def report(name: str, result: RunResult, units: dict[str, str]) -> None:
    ratio = result.failed / result.attempted
    print(f"workload {name}: {result.attempted} commands, {result.failed} failed")
    for metric, unit in units.items():
        note = result.notes.get(metric)
        print(f"  {metric:<40} {result.metrics[metric]:>14.6g} {unit:<5}"
              + (f"  ({note})" if note else ""))
    print(f"  {'fail_ratio':<40} {ratio:>14.6g} {'1':<5}  "
          f"({result.failed}/{result.attempted} commands)")
    for problem in result.problems[:20]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        co = Checkout(Path.cwd())
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot benchmark this directory: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    run = run_traced if args.trace else run_e2e
    results = {}
    for name in names:
        try:
            results[name] = run(co, WORKLOADS[name], args.seed, args.seconds)
        except (SetupError, OSError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        report(name, results[name], units if args.trace else {**units, **PRINTED_ONLY})

    def entry(result: RunResult, metric: str) -> dict:
        return {"value": result.metrics[metric], "unit": units[metric]}

    if len(names) == 1:
        metrics = {m: entry(results[names[0]], m) for m in units}
    else:
        metrics = {f"{n}.{m}": entry(results[n], m) for n in names for m in units}
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
