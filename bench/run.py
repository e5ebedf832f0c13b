"""pga2d benchmark: cold CLI runs and long generated scripts, end to end and per layer.

Usage, from the root of a checkout (pga2d need not be installed; ``src`` is
put on the path)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, untraced then traced

Workloads (one client, one thread, closed loop: the next request starts when
the previous one has finished):

* ``cli-golden``: each request is a fresh ``python -m pga2d.cli run`` process
  on one of the three golden scripts in turn (``dist345`` with ``--svg``);
  stdout and the SVG must equal the checked-in expected files byte for byte.
* ``script-euclid`` / ``script-ideal``: each request is an in-process
  ``parse`` + ``evaluate`` + ``build_svg`` of one generated script of about
  1,000 statements (see ``generate.py``); printed values are checked against
  the independent plain-geometry reference and drawn elements are counted.

``--trace 0`` measures the end-to-end metrics with the program untouched,
scaled to a reference host (see ``untraced``).
``--trace 1`` installs span wrappers around every layer's public names (see
``spans.py``) and reports per-layer counts and self times, import times from
``-X importtime``, and the CLI phase split, plus the tracing overhead.

Every metric is printed as ``name = value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans of traced
runs are written to ``.bench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "scripts"
OUT = ROOT / ".bench_out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

WORKLOADS = ("cli-golden", "script-euclid", "script-ideal")
GOLDEN_SCRIPTS = ("dist345", "rotation_case", "translation_case")
POOL = 32  # generated scripts per run, cycled through
SETUP_REPEATS = 12  # fresh interpreters per run for setup_s

# The reference host that end-to-end times are scaled to (see untraced):
REF_LOOP_S = 0.005  # it runs calibration_loop() in 5 ms
REF_START_S = 0.050  # and starts a bare interpreter in 50 ms
SPAN_CAP = 50_000  # spans kept in memory for the spans file
MODULES = (
    "pga2d", "errors", "multivector", "elements", "metric", "geometry", "isometry",
    "script", "render", "cli",
)

END_TO_END = {
    "request_ms.p50": "ms",
    "request_ms.p90": "ms",
    "stmts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "multivector.constructed_per_stmt": "count",
    "multivector.products_per_stmt": "count",
    "multivector.self_ms": "ms",
    "elements.constructed_per_stmt": "count",
    "elements.self_ms": "ms",
    "metric.calls_per_stmt": "count",
    "metric.self_ms": "ms",
    "geometry.self_ms": "ms",
    "isometry.self_ms": "ms",
    "isometry.sandwich_per_solve": "count",
    "script.parse_self_ms": "ms",
    "script.evaluate_self_ms": "ms",
    "script.errors": "count",
    "render.self_ms": "ms",
    **{f"import.{m}_ms": "ms" for m in MODULES},
    "cli.import_ms": "ms",
    "cli.parse_eval_ms": "ms",
    "cli.render_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.cli_overhead_ratio": "ratio",
}


class Request:
    """One unit of work: a script, how the CLI runs it, and what it must print."""

    def __init__(self, name, text, statements, cli_args, stdout=None, svg=None, check=None):
        self.name = name
        self.text = text
        self.statements = statements
        self.cli_args = cli_args
        self.render = "--svg" in cli_args
        self.stdout = stdout  # expected stdout; None until verified by check
        self.svg = svg  # expected SVG text, None when nothing is rendered
        self.check = check  # (stdout, svg) -> problems, against the reference

    def problems(self, out: str, svg) -> list[str]:
        if self.stdout is None:
            return self.check(out, svg)
        problems = [] if out == self.stdout else [f"stdout differs: {out[:200]!r}"]
        if svg != self.svg:
            problems.append("svg differs from the expected one")
        return problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{name}: {problems[0]}")
        return not problems


# -- inputs --------------------------------------------------------------------


def golden_requests() -> list[Request]:
    requests = []
    for name in GOLDEN_SCRIPTS:
        path = GOLDEN / f"{name}.pga"
        text = path.read_text(encoding="utf-8")
        stdout = (GOLDEN / f"{name}.expected.txt").read_text(encoding="utf-8")
        svg_path = GOLDEN / f"{name}.expected.svg"
        svg = svg_path.read_text(encoding="utf-8") if svg_path.exists() else None
        args = ["run", str(path)] + (["--svg", str(OUT / f"{name}.svg")] if svg else [])
        requests.append(Request(name, text, _count_statements(text), args, stdout, svg))
    return requests


def generated_requests(workload: str, seed: int) -> list[Request]:
    import generate
    import reference

    requests = []
    for index in range(POOL):
        script = generate.generate(workload, seed, index)
        name = f"{workload}-{index}"

        def check(out, svg, script=script):
            return reference.check_output(out, script.expected) + reference.check_svg(
                svg, script.circles, script.arrows, script.lines
            )

        path = OUT / f"{name}.pga"
        args = ["run", str(path), "--svg", str(OUT / f"{name}.svg")]
        requests.append(Request(name, script.text, script.statements, args, check=check))
    return requests


def _count_statements(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())


# -- in-process requests ---------------------------------------------------------


def run_in_process(req: Request):
    """parse + evaluate (+ build_svg when the request renders); returns
    (seconds, stdout, svg).  Exceptions propagate to the caller."""
    from pga2d.render import build_svg
    from pga2d.script import evaluate, parse

    t0 = time.perf_counter()
    env, out = evaluate(parse(req.text))
    svg = build_svg(env) if req.render else None
    return time.perf_counter() - t0, out, svg


def verify_in_process(requests: list[Request], tally: Tally) -> None:
    """Warm-up pass; a generated script's output becomes its expected CLI
    output only after it has passed the independent reference check."""
    for req in requests:
        try:
            _, out, svg = run_in_process(req)
        except Exception as exc:  # a failed request, counted, not fatal
            tally.record(req.name, [f"{type(exc).__name__}: {exc}"])
            continue
        if tally.record(req.name, req.problems(out, svg)) and req.stdout is None:
            req.stdout, req.svg = out, svg
            (OUT / f"{req.name}.pga").write_text(req.text, encoding="utf-8")


def script_request(req: Request, tally: Tally):
    """One in-process request; its latency in seconds, or None if it failed."""
    try:
        dt, out, svg = run_in_process(req)
    except Exception as exc:
        tally.record(req.name, [f"{type(exc).__name__}: {exc}"])
        return None
    return dt if tally.record(req.name, req.problems(out, svg)) else None


# -- child processes ---------------------------------------------------------------


def cold_run(req: Request, probe: bool = False):
    """A fresh interpreter running the CLI; returns (wall s, code, stdout, stderr, svg)."""
    if probe:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_probe.py"), *req.cli_args]
    else:
        cmd = [sys.executable, "-m", "pga2d.cli", *req.cli_args]
    svg_path = Path(req.cli_args[-1]) if "--svg" in req.cli_args else None
    if svg_path is not None and svg_path.exists():
        svg_path.unlink()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    svg = svg_path.read_text(encoding="utf-8") if svg_path and svg_path.exists() else None
    return wall, proc.returncode, proc.stdout, proc.stderr, svg


def check_cold(req: Request, code: int, out: str, svg) -> list[str]:
    return [f"exit code {code}"] if code != 0 else req.problems(out, svg)


def setup_sample(statement: str) -> float:
    """Seconds a fresh interpreter spends on the workload's imports, timed
    inside the child so that interpreter start-up is excluded."""
    code = f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def parse_probe(stderr: str):
    """(import self ms per pga2d module, phase spans) from a probe's stderr."""
    imports, phases = {}, []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            module = fields[2]
            if module == "pga2d" or module.startswith("pga2d."):
                imports[module.rpartition(".")[2]] = int(fields[0]) / 1000.0
        elif line.startswith("PROBE "):
            phases = json.loads(line[len("PROBE "):])
    return imports, phases


# -- workloads ---------------------------------------------------------------------


def cold_request(req: Request, tally: Tally):
    wall, code, out, _, svg = cold_run(req)
    return wall if tally.record(req.name, check_cold(req, code, out, svg)) else None


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop that does not touch pga2d."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(20_000):
        item = (i * 0.5, i * 1.5, math.sqrt(i + 1.0))
        acc += item[0] * item[2] - item[1]
        table[i & 255] = item
    return time.perf_counter() - t0


def bare_start() -> float:
    """Wall seconds of a bare interpreter start, ``python -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=CHILD_ENV, check=True)
    return time.perf_counter() - t0


def untraced(workload: str, seed: int, seconds: int):
    """Closed loop over the workload's requests for the given seconds.

    Other tenants of a shared host change its speed by up to a factor of two
    over minutes, for every kind of work alike.  So the end-to-end times are
    scaled to a reference host: every few requests the loop times a piece of
    work that does not involve pga2d (a bare interpreter start for cold CLI
    runs and set-up, calibration_loop() in process), and each request's time
    is multiplied by the reference time of that work over the mean of the
    measurements just before and after the request.  On the reference host
    the factor is 1; the wall times as measured are printed as notes.
    """
    tally = Tally()
    if workload == "cli-golden":
        requests, execute = golden_requests(), cold_request
        calibrate, reference, group = bare_start, REF_START_S, len(GOLDEN_SCRIPTS)
        imports = "import pga2d.cli"
    else:
        requests, execute = generated_requests(workload, seed), script_request
        calibrate, reference, group = calibration_loop, REF_LOOP_S, 4
        imports = "import pga2d, pga2d.script, pga2d.render"
        verify_in_process(requests, Tally())
    setup_sample(imports)  # fills the bytecode caches
    setup, raw_setup = [], []
    samples = []  # (scaled seconds, wall seconds, statements) of requests that passed
    t0 = time.perf_counter()
    before = calibrate()
    i = first = seed % len(requests)
    while i == first or time.perf_counter() - t0 < seconds:
        if len(setup) < 1 + SETUP_REPEATS * (time.perf_counter() - t0) / seconds:
            raw_setup.append(setup_sample(imports))
            setup.append(raw_setup[-1] * REF_START_S / bare_start())
        done = []
        for _ in range(group):
            req = requests[i % len(requests)]
            i += 1
            dt = execute(req, tally)
            if dt is not None:
                done.append((dt, req.statements))
        after = calibrate()
        scale = reference / (0.5 * (before + after))
        samples.extend((dt * scale, dt, n) for dt, n in done)
        before = after
    if not samples:
        raise SystemExit(f"error: no request succeeded: {tally.problems[:3]}")
    if workload == "cli-golden":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [1e3 * t for t, _, _ in samples]
    wall = [1e3 * w for _, w, _ in samples]
    statements = sum(n for _, _, n in samples)
    metrics = {
        "request_ms.p50": statistics.median(scaled),
        "request_ms.p90": _p90(scaled),
        "stmts_per_s": 1e3 * statements / sum(scaled),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"requests: {len(samples)} timed; p90 has {len(samples) - int(0.9 * len(samples))}"
        " beyond it",
        f"setup_s: median of {len(setup)} fresh interpreters",
        "times are scaled to the reference host; as measured here:"
        f" request_ms.p50 {statistics.median(wall):.6g}, request_ms.p90 {_p90(wall):.6g},"
        f" stmts_per_s {1e3 * statements / sum(wall):.6g}, setup_s {statistics.median(raw_setup):.6g}",
        f"host speed: reference time / measured time = {statistics.median(scaled) / statistics.median(wall):.4g}",
        f"failed_ratio = {tally.failed}/{tally.attempted}"
        f" = {tally.failed / max(1, tally.attempted):.6g}",
    ]
    return tally, metrics, notes


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def traced(workload: str, seed: int, seconds: int):
    import spans
    from pga2d.errors import ScriptError

    tally = Tally()
    if workload == "cli-golden":
        requests = golden_requests()
    else:
        requests = generated_requests(workload, seed)
    verify_in_process(requests, tally)

    tracer = spans.Tracer()
    summary = spans.Summary()
    kept: list[tuple] = []
    times = {"untraced": 0.0, "traced": 0.0, "cold": [], "probe": []}
    imports: dict[str, list[float]] = {m: [] for m in MODULES}
    phases: dict[str, list[float]] = {"import": [], "parse_eval": [], "render": []}
    traced_requests = traced_statements = errors = rounds = 0
    request_id = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        # the same requests untraced then traced: both must print the verified output
        for req in requests:
            dt = script_request(req, tally)
            if dt is None:
                continue
            times["untraced"] += dt
            request_id += 1
            tracer.current[0] = request_id
            tracer.install()
            root = tracer.open("bench.request")
            try:
                dt, out, svg = run_in_process(req)
                times["traced"] += dt
                problems = req.problems(out, svg)
            except ScriptError as exc:
                errors += 1
                problems = [f"{type(exc).__name__}: {exc}"]
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            finally:
                tracer.close(root)
                tracer.uninstall()
            rows = tracer.take()
            summary.add(spans.summarize(rows))
            if len(kept) + len(rows) <= SPAN_CAP:
                base = len(kept)
                kept.extend((n, s, e, p + base if p >= 0 else -1, r) for n, s, e, p, r in rows)
            traced_requests += 1
            traced_statements += req.statements
            tally.record(req.name, problems)

        # cold CLI runs: plain, then split into phases with -X importtime
        cases = requests if workload == "cli-golden" else [requests[rounds % len(requests)]]
        for req in cases:
            if req.stdout is None:
                continue  # failed the in-process check; already counted
            wall, code, out, _, svg = cold_run(req)
            tally.record(req.name + " (cli)", check_cold(req, code, out, svg))
            times["cold"].append(wall)
            request_id += 1
            wall, code, out, err, svg = cold_run(req, probe=True)
            errors += code in (1, 2)
            tally.record(req.name + " (probe)", check_cold(req, code, out, svg))
            times["probe"].append(wall)
            mod_ms, probe_spans = parse_probe(err)
            for module in MODULES:
                imports[module].append(mod_ms.get(module, 0.0))
            by_name = {"import": 0.0, "parse": 0.0, "evaluate": 0.0, "render_svg": 0.0}
            for name, start, end in probe_spans:
                by_name[name] += end - start
                if len(kept) < SPAN_CAP:
                    kept.append((f"cli.{name}", start, end, -1, request_id))
            phases["import"].append(by_name["import"])
            phases["parse_eval"].append(by_name["parse"] + by_name["evaluate"])
            if req.render:
                phases["render"].append(by_name["render_svg"])
        rounds += 1

    write_spans(workload, kept)
    counts = spans.layer_counts(summary)
    per_req = 1e3 / max(1, traced_requests)
    self_s = summary.self_s
    med = statistics.median
    metrics = {
        "multivector.constructed_per_stmt": counts["mv_constructed"] / traced_statements,
        "multivector.products_per_stmt": counts["products"] / traced_statements,
        "multivector.self_ms": self_s["multivector"] * per_req,
        "elements.constructed_per_stmt": counts["elements_constructed"] / traced_statements,
        "elements.self_ms": self_s["elements"] * per_req,
        "metric.calls_per_stmt": counts["metric_calls"] / traced_statements,
        "metric.self_ms": self_s["metric"] * per_req,
        "geometry.self_ms": self_s["geometry"] * per_req,
        "isometry.self_ms": self_s["isometry"] * per_req,
        "isometry.sandwich_per_solve": counts["sandwich_in_solve"] / max(1, counts["solves"]),
        "script.parse_self_ms": self_s["script.parse"] * per_req,
        "script.evaluate_self_ms": self_s["script.evaluate"] * per_req,
        "script.errors": errors,
        "render.self_ms": self_s["render"] * per_req,
        **{f"import.{m}_ms": med(imports[m]) for m in MODULES},
        "cli.import_ms": 1e3 * med(phases["import"]),
        "cli.parse_eval_ms": 1e3 * med(phases["parse_eval"]),
        "cli.render_ms": 1e3 * med(phases["render"]) if phases["render"] else 0.0,
        "trace.overhead_ratio": times["traced"] / times["untraced"],
        "trace.cli_overhead_ratio": med(times["probe"]) / med(times["cold"]),
    }
    notes = [
        f"traced: {traced_requests} requests ({traced_statements} statements) in {rounds} rounds,"
        f" {len(times['probe'])} probe and {len(times['cold'])} plain cold CLI runs",
        "*_self_ms: self time per traced request; *_per_stmt: exact counts per statement",
        f"solve calls: {counts['solves']}"
        + ("" if counts["solves"] else " (no solve in this workload: sandwich_per_solve is 0)"),
        "wait time: none measured; one closed-loop client, no queue or lock in any layer",
        f"spans: {len(kept)} kept in .bench_out/spans-{workload}.tsv",
        f"failed_ratio = {tally.failed}/{tally.attempted}"
        f" = {tally.failed / max(1, tally.attempted):.6g}",
    ]
    return tally, metrics, notes


def write_spans(workload: str, rows: list[tuple]) -> None:
    with open(OUT / f"spans-{workload}.tsv", "w", encoding="utf-8") as f:
        f.write("request\tspan\tparent\tname\tstart_us\tend_us\n")
        for i, (name, start, end, parent, request) in enumerate(rows):
            f.write(f"{request}\t{i}\t{parent}\t{name}\t{start * 1e6:.3f}\t{end * 1e6:.3f}\n")


# -- entry point -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool):
    if trace:
        tally, values, notes = traced(workload, seed, seconds)
        units = PER_LAYER
    else:
        tally, values, notes = untraced(workload, seed, seconds)
        units = END_TO_END
    assert values.keys() == units.keys()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return tally, metrics, notes


def describe(workload: str) -> list[str]:
    lines = [
        f"python {platform.python_version()}, {os.cpu_count()} CPUs, "
        "one client, one thread, closed loop"
    ]
    if workload != "cli-golden":
        import generate

        mix = ", ".join(f"{v} {n}" for v, n in generate.MIXES[workload].items())
        lo, hi = generate.SCALE[workload]
        lines.append(f"pool of {POOL} generated scripts; statement mix per script: {mix}")
        lines.append(f"figure size S with log10(S) uniform in [{lo}, {hi}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pga2d benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "pga2d" / "__init__.py", GOLDEN) if not p.exists()]
    if missing:
        print(f"error: not a pga2d checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workload, trace = args.workload, bool(args.trace)
    print(f"# {workload} seed={args.seed} seconds={args.seconds} trace={int(trace)}")
    for line in describe(workload):
        print(f"# {line}")
    tally, metrics, notes = run(workload, args.seed, args.seconds, trace)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in notes + tally.problems:
        print(f"# {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced and traced, each in its own process so that
    peak RSS and imports do not carry over; exits 1 if any check failed."""
    failed = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines.pop()) if proc.returncode == 0 else {"correct": False}
            print("\n".join(lines))
            sys.stderr.write(proc.stderr)
            failed += not result["correct"]
    print(f"# {failed} of {2 * len(WORKLOADS)} runs failed a check" if failed else "# all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
