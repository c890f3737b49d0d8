"""idealform benchmark: CLI throughput and latency per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.
Each workload is a seeded corpus of problem documents (see corpus.py). One
closed-loop client in this process calls ``idealform.cli.main`` once per
instance, in corpus order, and starts the next call when the previous one
returns. The loop repeats whole passes over the corpus until ``--seconds``
have elapsed at reference speed (below), so every instance is sampled
equally often and a run measures the same number of passes however fast the
machine is at the time. It makes at least as many passes as the tail
percentile needs (spans.passes_for_tail), so a slower program cannot move
the tail latency to a lower percentile.

Times are reported at reference speed: before each call the loop times a
fixed exact-rational computation (spans.reference_seconds), and each pass's
times are scaled so that this reference would take 1 ms. On a shared 2-vCPU
VM the speed drifted by up to 1.6x within a minute and the reference tracked
that drift; the unscaled wall-clock figures are kept in the record.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones, in which the CLI's stage functions run
inside spans (traced.py), and reports the per-layer metrics. Every
invocation is checked: the exit code, the paper's counts on the warm-up
output, and the output bytes of every later pass against the warm-up's.
Each call's output file is removed before the call, outside the timing, so
a call that does not write it fails the check. The last line of stdout is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from spans import (Tracer, median_of_instances, passes_for_tail, reference_seconds,
                   self_time_by_name, speed_scale, tail_latency)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span names whose summed self time per pass is a per-layer metric.
LAYER_SPANS = (
    "invocation",
    "cli.args",
    "encoding.convex_position",
    "encoding.hole_free",
    "cdc.digraph",
    "cdc.directions",
    "cdc.dim_condition",
    "cdc.normals",
    "cdc.rows",
    "pwl.ground_set",
    "pwl.formulation",
    "annulus.formulation",
    "verify.embedding",
    "verify.enumerate",
    "verify.validity",
    "documents.parse",
    "documents.emit",
    "documents.reparse",
    "lp_format.emit",
)
# Counters per pass, computed from the public API where the work happens.
LAYER_COUNTS = (
    "encoding.convex_position_calls",
    "encoding.hole_points",
    "cdc.arcs",
    "cdc.directions",
    "cdc.normal_subsets",
    "cdc.normals",
    "cdc.general_rows",
    "verify.base_vertices",
    "verify.cuts",
    "verify.vertices",
    "verify.validity_row_evals",
    "documents.bytes",
    "lp_format.bytes",
)
MILP_METRICS = {
    "milp.build_s": "s",
    "milp.solve_s": "s",
    "milp.solve_binary_s": "s",
    "milp.nodes": "count",
    "milp.nodes_binary": "count",
    "milp.node_ratio": "ratio",
}


def layer_metric(span: str) -> str:
    return "invocation.self_s" if span == "invocation" else f"{span}_s"


def per_layer_units() -> dict[str, str]:
    units = {layer_metric(span): "s" for span in LAYER_SPANS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["cdc.normals_yield"] = "ratio"
    units["pwl.fast_path_share"] = "ratio"
    units.update(MILP_METRICS)
    units.update({"trace.overhead_share": "ratio", "trace.traced_pass_s": "s",
                  "trace.untraced_pass_s": "s"})
    return units


def load_program():
    """Import idealform from this checkout; returns (seconds, cli module)."""
    if not os.path.isfile(os.path.join(SOURCE, "idealform", "__init__.py")):
        raise SystemExit(f"error: no idealform sources under {SOURCE}")
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    start = time.perf_counter()
    import idealform.cli

    seconds = time.perf_counter() - start
    if not os.path.abspath(idealform.cli.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"error: imported idealform from {idealform.cli.__file__}")
    return seconds, idealform.cli


class Tally:
    """Checked operations and the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_counts_ok(inst, doc: dict) -> bool:
    if inst.command == "verify":
        counts_ok = True
    else:
        counts_ok = doc["variables"]["z"]["count"] == inst.r
        if inst.gamma is not None:
            counts_ok &= len(doc["general_rows"]) == inst.gamma
    if inst.points is not None:
        report = doc if inst.command == "verify" else doc["verification"]
        counts_ok &= (report["passed"] is True
                      and report["expected"] == report["found"] == inst.points)
    elif inst.command == "verify":
        counts_ok &= doc["passed"] is True
    return counts_ok


def _lp_counts_ok(inst, text: str) -> bool:
    lines = text.splitlines()
    generals = lines[lines.index("Generals") + 1].split()
    rows = [line for line in lines if line.startswith(" g") and "_lo:" in line]
    return len(generals) == inst.r and (inst.gamma is None or len(rows) == inst.gamma)


def paper_counts_ok(inst, output: bytes) -> bool:
    """r = ceil(log2 d), the paired-row count, and an exact ideal match."""
    text = output.decode()
    try:
        if inst.fmt == "lp" and inst.command != "verify":
            return _lp_counts_ok(inst, text)
        return _json_counts_ok(inst, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


class Runner:
    """Runs a corpus through the CLI in this process, one call at a time."""

    def __init__(self, cli, corpus, root: str, tally: Tally):
        self.cli = cli
        self.corpus = corpus
        self.root = root
        self.tally = tally
        self.argv = [inst.argv(root) for inst in corpus.instances]
        self.digests: list[str] = []

    def _call(self, argv) -> tuple[int | None, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception as err:  # a crash is a failed invocation, not the end of the run
            self.tally.messages.append(f"{argv[0]} raised {err!r}")
            code = None
        return code, stdout.getvalue()

    def clear(self, inst) -> None:
        """Remove the output an earlier call left, so a missing write shows."""
        if inst.output is not None:
            try:
                os.remove(os.path.join(self.root, inst.output))
            except FileNotFoundError:
                pass

    def output(self, inst, stdout: str) -> bytes:
        if inst.output is None:
            return stdout.encode()
        try:
            with open(os.path.join(self.root, inst.output), "rb") as handle:
                return handle.read()
        except OSError:
            return b""

    def warm_up(self) -> float:
        """One checked pass that records each instance's output digest.

        Returns the speed scale measured alongside it.
        """
        self.digests = []
        references = []
        for inst, argv in zip(self.corpus.instances, self.argv):
            references.append(reference_seconds())
            self.clear(inst)
            code, stdout = self._call(argv)
            output = self.output(inst, stdout)
            self.tally.check(code == 0 and paper_counts_ok(inst, output),
                             f"warm-up {inst.name}: exit {code}, counts wrong")
            self.digests.append(digest(output))
        return speed_scale(references)

    def timed_pass(self) -> tuple[list[float], float]:
        """One checked pass: (seconds per call, speed scale of the pass)."""
        latencies, references = [], []
        for inst, argv, want in zip(self.corpus.instances, self.argv, self.digests):
            references.append(reference_seconds())
            self.clear(inst)
            before = time.perf_counter()
            code, stdout = self._call(argv)
            latencies.append(time.perf_counter() - before)
            self.tally.check(code == 0 and digest(self.output(inst, stdout)) == want,
                             f"{inst.name}: exit {code} or output changed")
        return latencies, speed_scale(references)

    def traced_pass(self, tracer) -> float:
        """One pass through the CLI with its stage calls in spans (traced.py).

        Each output is checked against the untraced CLI's. Returns the speed
        scale measured alongside the pass.
        """
        from traced import traced_stages

        references = []
        with traced_stages(tracer):
            for inst, argv, want in zip(self.corpus.instances, self.argv, self.digests):
                references.append(reference_seconds())
                self.clear(inst)
                tracer.instance = inst.name
                with tracer.span("invocation"):
                    code, stdout = self._call(argv)
                self.tally.check(code == 0 and digest(self.output(inst, stdout)) == want,
                                 f"traced {inst.name}: differs from the CLI")
        tracer.settle()
        return speed_scale(references)


def timed_passes(timed_pass, seconds: float, min_passes: int):
    """Passes until ``seconds`` at reference speed and at least ``min_passes``.

    Returns (latencies at reference speed, raw latencies, passes).
    """
    raw: list[float] = []
    latencies: list[float] = []
    passes = 0
    measured = 0.0
    while measured < seconds or passes < min_passes:
        pass_start = time.perf_counter()
        pass_latencies, scale = timed_pass()
        raw += pass_latencies
        latencies += [x * scale for x in pass_latencies]
        passes += 1
        measured += (time.perf_counter() - pass_start) * scale
    return latencies, raw, passes


def set_up(cli, args, work: str, tally: Tally) -> tuple[Runner, float, float]:
    """Corpus generation, documents written, one checked warm-up pass.

    Returns the runner, the set-up's wall seconds and its speed scale.
    """
    from corpus import build_corpus

    start = time.perf_counter()
    corpus = build_corpus(args.workload, args.seed)
    root = tempfile.mkdtemp(dir=work)
    corpus.write(root)
    runner = Runner(cli, corpus, root, tally)
    scale = runner.warm_up()
    return runner, time.perf_counter() - start, scale


def milp_stage(runner: Runner, tracer, tally: Tally) -> dict:
    """Solve every problem three ways; returns the downstream record."""
    from corpus import document_name
    from downstream import (binary_model, consistent, idealform_model,
                            recovery_errors, timed_solve)
    from idealform import EncodingKind, formulation_from_document, parse_problem

    def read(name: str) -> str:
        with open(os.path.join(runner.root, name)) as handle:
            return handle.read()

    problems = []
    for problem in runner.corpus.problems:
        functions = [parse_problem(read(document_name(c))).function
                     for c in problem.costs]
        solves = {}
        for kind in (EncodingKind.GRAY, EncodingKind.ZIGZAG):
            with tracer.span("milp.build"):
                formulations = [formulation_from_document(
                    json.loads(read(f"{c}-{kind.value}.json"))) for c in problem.costs]
                model, blocks = idealform_model(formulations, problem.budget)
            with tracer.span("milp.solve"):
                solve, x = timed_solve(model)
            errors = (["no solution"] if x is None else
                      recovery_errors(blocks, x, functions, kind, problem.budget))
            tally.check(not errors, f"{problem.name} {kind.value}: {errors[:3]}")
            solves[kind.value] = solve
        with tracer.span("milp.build"):
            model = binary_model(functions, problem.budget)
        with tracer.span("milp.solve_binary"):
            solves["binary"], _ = timed_solve(model)
        tally.check(all(consistent(solves[a], solves[b]) for a, b in
                        (("gray", "zigzag"), ("gray", "binary"), ("zigzag", "binary"))),
                    f"{problem.name}: optima differ {solves}")
        problems.append({"name": problem.name, "budget": problem.budget,
                         **{name: vars(s) for name, s in solves.items()}})
    nodes = sum(p[k]["nodes"] for p in problems for k in ("gray", "zigzag"))
    nodes_binary = sum(p["binary"]["nodes"] for p in problems)
    return {
        "problems": problems,
        "milp_nodes": nodes,
        "milp.nodes_binary": nodes_binary,
        # A model presolve settles reports 0 nodes; the ratio counts it as one.
        "milp_node_ratio": nodes / max(1, nodes_binary),
        "milp_solve_s": sum(p[k]["seconds"] for p in problems for k in ("gray", "zigzag")),
        "milp.solve_binary_s": sum(p["binary"]["seconds"] for p in problems),
    }


def machine() -> dict:
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "platform": platform.platform()}
    try:
        record["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        record["scipy"] = None
    if "scipy.optimize" in sys.modules:
        from downstream import highs_version

        record["highs"] = highs_version()
    return record


def measure(cli, import_s: float, args, work: str, tally: Tally) -> tuple[dict, dict]:
    """--trace 0: returns (end-to-end metrics, record)."""
    setups, scales = [], []
    for _ in range(SETUP_REPEATS):
        runner, seconds, scale = set_up(cli, args, work, tally)
        setups.append(seconds)
        scales.append(scale)

    per_pass = len(runner.argv)
    start = time.perf_counter()
    latencies, raw, passes = timed_passes(
        runner.timed_pass, args.seconds, passes_for_tail(per_pass))
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record: dict = {}
    if runner.corpus.problems:
        record["milp"] = milp_stage(runner, Tracer(), tally)
    percentile, tail, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(
            (import_s + s) * scale for s, scale in zip(setups, scales)),
        "instances_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": median_of_instances(latencies, per_pass) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    names = [inst.name for inst in runner.corpus.instances]
    record.update({
        "latency_ms_by_instance": {
            name: statistics.median(latencies[i::len(names)]) * 1000
            for i, name in enumerate(names)},
        "passes": passes,
        "samples": len(latencies),
        "latency_tail": {"percentile": percentile, "samples_beyond": beyond},
        "latency_p50_pooled_ms": statistics.median(latencies) * 1000,
        "wall": {
            "setup_s": import_s + statistics.median(setups),
            "instances_per_s": len(raw) / elapsed,
            "latency_p50_ms": median_of_instances(raw, per_pass) * 1000,
            "latency_tail_ms": tail_latency(raw)[1] * 1000,
        },
        "speed_scales": {"setup": scales},
        "import_s": import_s,
        "output_digest": digest("".join(runner.digests).encode()),
    })
    return metrics, record


def trace(cli, args, work: str, tally: Tally) -> tuple[dict, dict]:
    """--trace 1: returns (per-layer metrics, record)."""
    runner, _, _ = set_up(cli, args, work, tally)
    untraced: list[float] = []
    traced: list[float] = []
    layer_times: dict[str, list[float]] = {span: [] for span in LAYER_SPANS}
    measured = 0.0
    while measured < args.seconds:
        pass_start = time.perf_counter()
        pass_latencies, scale = runner.timed_pass()
        untraced.append(sum(pass_latencies) * scale)
        measured += (time.perf_counter() - pass_start) * scale
        pass_start = time.perf_counter()
        tracer = Tracer()
        scale = runner.traced_pass(tracer)
        measured += (time.perf_counter() - pass_start) * scale
        traced.append(sum(s.duration for s in tracer.spans if s.parent is None) * scale)
        own = self_time_by_name(tracer.spans)
        for span in LAYER_SPANS:
            layer_times[span].append(own.get(span, 0.0) * scale)
    counts = tracer.counts

    metrics = {layer_metric(span): statistics.median(values)
               for span, values in layer_times.items()}
    metrics.update({name: counts[name] for name in LAYER_COUNTS})
    subsets = counts["cdc.normal_subsets"]
    metrics["cdc.normals_yield"] = counts["cdc.normals"] / subsets if subsets else 0.0
    documents = counts["pwl.documents"]
    metrics["pwl.fast_path_share"] = counts["pwl.fast_path"] / documents if documents else 0.0
    metrics.update({name: 0 for name in MILP_METRICS})
    record: dict = {}
    if runner.corpus.problems:
        milp_tracer = Tracer()
        milp = milp_stage(runner, milp_tracer, tally)
        own = self_time_by_name(milp_tracer.spans)
        metrics.update({
            "milp.build_s": own.get("milp.build", 0.0),
            "milp.solve_s": own.get("milp.solve", 0.0),
            "milp.solve_binary_s": own.get("milp.solve_binary", 0.0),
            "milp.nodes": milp["milp_nodes"],
            "milp.nodes_binary": milp["milp.nodes_binary"],
            "milp.node_ratio": milp["milp_node_ratio"],
        })
        record["milp"] = milp
    traced_pass = statistics.median(traced)
    untraced_pass = statistics.median(untraced)
    metrics["trace.traced_pass_s"] = traced_pass
    metrics["trace.untraced_pass_s"] = untraced_pass
    metrics["trace.overhead_share"] = traced_pass / untraced_pass - 1
    record.update({"passes": len(traced), "span_count": len(tracer.spans)})
    return metrics, record


def parse_args(argv=None):
    from corpus import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s, cli = load_program()
    tally = Tally()
    # Corpora live in a scratch directory inside the checkout, removed on exit.
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.trace:
            metrics, record = trace(cli, args, work, tally)
            units = per_layer_units()
        else:
            metrics, record = measure(cli, import_s, args, work, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from corpus import build_corpus

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "instances": build_corpus(args.workload, args.seed).describe(),
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.messages,
    })
    for name, value in metrics.items():
        print(f"{name:34} {value:>16.6f} {units[name]}")
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
