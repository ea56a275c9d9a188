"""Benchmark of the secres pipeline, driven through ``secres.cli.main``.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each command starts when the previous
one returns.  The seeded model files are written before timing starts and
the program sees only them.  After a warm-up pass the command list runs
again and again until ``--seconds`` have passed, with the reference loop of
``reference.py`` run between commands; pass times are reported in units of
that loop's time, so that the host's changing load cancels out.  The
set-up samples are spread over the same stretch of time.  Outputs are then checked
outside the timed region, and the last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced passes, so the difference of
their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from reference import reference_seconds
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 2, 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the secres pipeline.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_command(argv) -> tuple[object, str]:
    """Exit code of one CLI call (or the uncaught exception) and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = sys.modules["secres.cli"].main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # reported as a benchmark error, not raised
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, err.getvalue()


def run_pass(cmds) -> tuple[float, float, list]:
    """Wall seconds of one pass, the same in reference-loop units, and the exit codes.

    The reference loop runs before the first command and after each one, and
    each command's time is divided by the mean of the two loops around it.
    """
    codes, seconds, relative = [], 0.0, 0.0
    before = reference_seconds()
    for cmd in cmds:
        start = perf_counter()
        codes.append(run_command(cmd.argv)[0])
        elapsed = perf_counter() - start
        after = reference_seconds()
        seconds += elapsed
        relative += elapsed / ((before + after) / 2)
        before = after
    return seconds, relative, codes


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two samples around it.

    A 30 s run holds 10 to 90 passes, too few for a percentile above the
    median with ten samples beyond it; the rank of such a percentile would
    jump with the pass count, while this one moves smoothly with it.
    """
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class SetupTimer:
    """Wall times of fresh interpreters running ``secres validate`` on one model."""

    def __init__(self, model: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.argv = [sys.executable, "-m", "secres.cli", "validate", "--model", str(model)]
        self.samples: list[float] = []
        self.sample()  # the first call may still be compiling bytecode
        self.samples.clear()

    def sample(self) -> None:
        start = perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.samples.append(perf_counter() - start)


def digest(cmds) -> list:
    return [hashlib.sha256(c.out.read_bytes()).hexdigest() if c.out.exists() else None
            for c in cmds]


class References:
    """High-precision EP references, cached per seed on disk, computed outside timing."""

    def __init__(self, path: Path):
        self.path = path
        self.cache = json.loads(path.read_text()) if path.exists() else {}
        self.unconverged = 0

    def _lookup(self, key: str, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def ep(self, model_file: Path, estimate: complex):
        """40-digit EP reached by Newton iteration from the estimate, or None."""
        text = model_file.read_bytes()
        key = f"ep:{hashlib.sha256(text).hexdigest()}:{estimate.real!r}:{estimate.imag!r}"
        found = self._lookup(key, lambda: checks.reference_ep(json.loads(text), estimate))
        self.unconverged += found is None
        return found

    def nearest(self, model_file: Path) -> str:
        """Modulus of the model's true nearest EP."""
        text = model_file.read_bytes()
        key = f"nearest:{hashlib.sha256(text).hexdigest()}"
        return self._lookup(key, lambda: checks.nearest_ep_modulus(json.loads(text)))

    def save(self) -> None:
        self.path.write_text(json.dumps(self.cache, indent=1) + "\n")


class Checker:
    """Checks one workload's outputs; collects problems and correct digits."""

    def __init__(self, zheng3: Path, scratch: Path, refs: References):
        self.zheng3, self.scratch, self.refs = zheng3, scratch, refs
        self.problems: list[str] = []
        self.digits: list[tuple[str, float]] = []
        self.sweep_error_rows = 0

    def secular(self, model_file: Path, order: int) -> list[list[float]]:
        """Coefficient series p_1..p_N of ``secres reconstruct`` at one order."""
        out = self.scratch / f"reconstruct-{model_file.stem}-K{order}.json"
        code, err = run_command(["reconstruct", "--model", str(model_file),
                                 "--order", str(order), "--out", str(out)])
        if code != EXIT_OK:
            raise RuntimeError(f"reconstruct {model_file} K={order} exited {code}: {err}")
        return json.loads(out.read_text())["coefficients"]

    def check(self, cmd) -> None:
        model_file = cmd.model or self.zheng3
        label = cmd.label
        if cmd.kind == "sweep":
            orders = [int(k) for k in workloads.SWEEP_ORDERS.split(",")]
            polys = {k: self.secular(model_file, k) for k in orders}
            problems, value, error_rows = checks.check_sweep(
                cmd.out, json.loads(model_file.read_text()), polys)
            self.sweep_error_rows += error_rows
        elif cmd.kind == "ep":
            nearest = checks.parse_ep_report(cmd.out)["orders"]
            problems = []
            for k, ep in nearest.items():
                problems += checks.check_companion_ep(
                    f"{label} K={k}", ep, self.secular(model_file, k))
            top = nearest[max(nearest)]
            ref = self.refs.ep(model_file, top)
            value = 0.0 if ref is None else checks.ep_digits(top, ref)
        elif cmd.kind == "ep-exact":
            ep = checks.parse_ep_report(cmd.out)["exact"]
            problems, value = checks.check_exact_ep(
                label, ep, self.refs.ep(model_file, ep), self.refs.nearest(model_file))
        else:  # table1
            rows = checks.parse_table1(cmd.out)
            problems = []
            for key, modulus in rows.items():
                if key != "exact":
                    problems += checks.check_modulus(
                        f"table1 K={key}", modulus, self.secular(self.zheng3, int(key)))
            found, value = checks.check_exact_modulus(
                "table1 exact", rows["exact"], self.refs.nearest(self.zheng3))
            problems += found
        self.problems += problems
        self.digits.append((label, value))


def classify(cmds, codes, messages) -> tuple[list, list[str]]:
    """Commands that failed (exit 3, or exit 2 on a valid model), and benchmark errors."""
    failures, errors = [], []
    for cmd, code, message in zip(cmds, codes, messages):
        if code in (EXIT_NUMERICAL, EXIT_VALIDATION):
            failures.append({
                "model": cmd.model.name if cmd.model else "zheng3 (bundled)",
                "order": cmd.order,
                "command": cmd.label,
                "exit": code,
                "error": message.strip(),
            })
        elif code != EXIT_OK:
            errors.append(f"{' '.join(cmd.argv)}: exit {code}: {message.strip()}")
    return failures, errors


def measure(cmds, seconds: float, warm_codes, tracer: Tracer | None, setup: SetupTimer):
    """Timed passes until the deadline; traced runs alternate with untraced ones.

    Between passes a set-up sample is taken whenever the samples fall behind
    an even spread of SETUP_REPEATS over the run; missing ones follow the last pass.
    """
    plain, traced, layer_passes, errors = [], [], [], []
    start = perf_counter()
    deadline = start + seconds
    turn = 0
    while True:
        order = [False] if tracer is None else ([False, True] if turn % 2 == 0 else [True, False])
        for with_trace in order:
            if with_trace:
                tracer.reset()
                tracer.install()
                try:
                    elapsed, _, codes = run_pass(cmds)
                finally:
                    tracer.remove()
                traced.append(elapsed)
                layer_passes.append((tracer.layer_totals(), dict(tracer.counters)))
            else:
                elapsed, relative, codes = run_pass(cmds)
                plain.append((elapsed, relative))
            if codes != warm_codes:
                errors.append(f"exit codes changed between passes: {warm_codes} -> {codes}")
        turn += 1
        now = perf_counter()
        if len(setup.samples) < SETUP_REPEATS and (
                now - start >= len(setup.samples) * seconds / SETUP_REPEATS):
            setup.sample()
        if now >= deadline:
            while len(setup.samples) < SETUP_REPEATS:
                setup.sample()
            return plain, traced, layer_passes, errors


def layer_metrics(layer_passes, plain, traced) -> dict:
    """Per-pass medians of every layer's calls, busy and self seconds, plus counters."""
    metrics = {}
    for name in LAYERS:
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            values = [totals[name][field] for totals, _ in layer_passes]
            metrics[f"{name}.{field}"] = (statistics.median(values), unit)
    counters = layer_passes[-1][1]
    calls = layer_passes[-1][0]["roots.all_roots"]["calls"]
    metrics["roots.all_roots.degree_mean"] = (
        counters.get("roots.all_roots.degree_sum", 0.0) / calls if calls else 0.0, "count")
    for name, unit in (("roots.all_roots.degree_max", "count"),
                       ("roots.all_roots.unconverged", "count"),
                       ("roots.all_roots.residual_max", "lambda"),
                       ("discriminant.discriminant.sylvester_n_max", "count"),
                       ("discriminant.discriminant.lambda_degree_max", "count")):
        metrics[name] = (counters.get(name, 0.0), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(s for s, _ in plain), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secres" / "cli.py").is_file():
        print(f"perfbench: no secres sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from secres import cli  # noqa: F401  (registers secres.cli in sys.modules)

    run_dir = WORK / args.workload / f"seed{args.seed}"
    for stale in ("models", "out", "scratch"):
        shutil.rmtree(run_dir / stale, ignore_errors=True)
    zheng3 = cli.bundled_model_path()
    models = workloads.write_models(args.workload, args.seed, run_dir / "models")
    cmds = workloads.commands(args.workload, models, zheng3, run_dir / "out")
    setup = SetupTimer(cmds[0].model or zheng3)
    # an exit 2 counts as a failure below only because every model is valid
    errors = [f"{path.name} does not validate: {message.strip()}" for path in models
              for code, message in [run_command(["validate", "--model", str(path)])]
              if code != EXIT_OK]

    warm = [run_command(cmd.argv) for cmd in cmds]
    warm_codes = [code for code, _ in warm]
    failures, warm_errors = classify(cmds, warm_codes, [message for _, message in warm])
    errors += warm_errors
    warm_digest = digest(cmds)

    tracer = Tracer() if args.trace else None
    plain, traced, layer_passes, pass_errors = measure(
        cmds, args.seconds, warm_codes, tracer, setup)
    setup_s = statistics.median(setup.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += pass_errors
    if digest(cmds) != warm_digest:
        errors.append("outputs differ between the warm-up pass and the last pass")

    (run_dir / "scratch").mkdir(parents=True, exist_ok=True)
    refs = References(run_dir / "references.json")
    checker = Checker(zheng3, run_dir / "scratch", refs)
    for cmd, code in zip(cmds, warm_codes):
        if code == EXIT_OK:
            checker.check(cmd)
    refs.save()
    (run_dir / "failures.json").write_text(json.dumps(failures, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(run_dir / "spans.csv")
    problems = errors + checker.problems

    attempted = len(cmds) * len(plain)
    failed = len(failures) * len(plain)
    seconds = [s for s, _ in plain]
    relative = [r for _, r in plain]
    p50_s, p50_rel = statistics.median(seconds), statistics.median(relative)
    p90_s, p90_rel = p90(seconds), p90(relative)
    digits_min = min((value for _, value in checker.digits), default=0.0)
    exit3 = sum(f["exit"] == EXIT_NUMERICAL for f in failures)

    lib_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "secres").glob("*.py"))
    print(f"workload {args.workload}  seed {args.seed}  {len(cmds)} commands per pass  "
          f"closed loop, one client, one thread")
    print(f"lib.lines    {lib_lines}   src/secres/*.py, recorded, not gated")
    print(f"setup_s      {setup_s:.4f} s   median of {SETUP_REPEATS} fresh interpreters "
          f"spread over the run")
    print(f"pass_rel.p50  {p50_rel:.2f} ref   pass time over reference-loop time, median "
          f"of {len(plain)} untraced passes after one warm-up")
    print(f"pass_rel.p90  {p90_rel:.2f} ref   of {len(plain)} passes, "
          f"{sum(r > p90_rel for r in relative)} above it")
    print(f"pass_s.p50   {p50_s:.4f} s   wall, not gated: moves with the host's load")
    print(f"pass_s.p90   {p90_s:.4f} s   wall, not gated")
    print(f"reference    {p50_s / p50_rel * 1e3:.3f} ms   pass_s.p50 / pass_rel.p50")
    print(f"fail_frac    {len(failures) / len(cmds):.4f} fraction   per pass: {exit3} exited 3, "
          f"{len(failures) - exit3} exited 2 on a valid model, of {len(cmds)} commands")
    print(f"digits_min   {digits_min:.2f} digits   over {len(checker.digits)} checked outputs, "
          f"{refs.unconverged} without a converged reference")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    for label, value in checker.digits:
        print(f"digits {value:6.2f}  {label}")
    if checker.sweep_error_rows:
        print(f"sweep rows with a root-finding error: {checker.sweep_error_rows}")
    for f in failures:
        print(f"failed: exit {f['exit']}: {f['command']}: {f['error']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = layer_metrics(layer_passes, plain, traced)
        for name, (value, unit) in metrics.items():
            print(f"{name:48s} {value:.6g} {unit}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_rel.p50": (p50_rel, "ref"),
            "pass_rel.p90": (p90_rel, "ref"),
            "digits_min": (digits_min, "digits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
