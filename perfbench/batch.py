"""The three batch workloads: ``repro check`` processes on a generated file.

Timed run: the corpus is generated with ``repro generate`` (set-up,
repeated and checked to be byte-identical), then ``repro check FILE
--format json`` runs as a fresh process again and again for the run's
seconds.  Every process must exit 1 (the corpora are not repaired, so
there are findings) and print the document that ``Session.check`` gives
for the in-memory generated model (no XMI round trip).

Traced run: the CLI's steps are repeated in a fresh child process with
each layer call timed (import, load, ``Session(...)``, one family at a
time, render); its document must equal the reference too.  Two untimed
exact-count passes, each in its own process, must agree.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Any, Dict, List, Tuple

from common import (WORK, Outcome, fresh_import_s, generate_corpus,
                    median, percentile, repro_cli, run_child, run_timed,
                    setup_corpus)
from layers import KernelCounts, Spans, ocl_cache_counts

SIZE = 20000


class BatchSpec:
    def __init__(self, package: str, traced_cli: bool) -> None:
        self.package = package
        self.traced_cli = traced_cli


SPECS = {
    "batch_load_check": BatchSpec("demo", traced_cli=False),
    "batch_uml_rules": BatchSpec("uml", traced_cli=False),
    "batch_traced": BatchSpec("demo", traced_cli=True),
}


def reference_document(package: str, seed: int) -> Tuple[str, float]:
    """Canonical check document of the in-memory generated model.

    Returns it with the in-process generation wall (``generate.s``).
    """
    from repro.generate import generate_model
    from repro.session import Session, canonical_check_document

    started = time.perf_counter()
    generated = generate_model(package, size=SIZE, seed=seed)
    generate_s = time.perf_counter() - started
    document = Session(generated.model).check().to_json()
    del generated
    gc.collect()
    return canonical_check_document(document), generate_s


def _canonical_output(stdout: bytes) -> str:
    from repro.session import canonical_check_document
    return canonical_check_document(json.loads(stdout))


def _check_once(spec: BatchSpec, corpus: str, reference: str,
                outcome: Outcome, label: str) -> Tuple[Any, int]:
    """One gated ``repro check`` process: its figures and trace spans."""
    argv = ["check", corpus, "--format", "json"]
    trace_path = os.path.join(WORK, "cli-trace.jsonl")
    if spec.traced_cli:
        if os.path.exists(trace_path):
            os.remove(trace_path)     # --trace appends
        argv += ["--trace", trace_path]
    result = run_timed(repro_cli(*argv), os.path.join(WORK, "check.out"))
    outcome.attempted += 1
    spans = 0
    problems = []
    if result.exit_code != 1:
        problems.append(f"exit code {result.exit_code}, expected 1")
    else:
        try:
            if _canonical_output(result.stdout) != reference:
                problems.append("document differs from the in-memory "
                                "reference")
        except ValueError as exc:
            problems.append(f"unparsable document: {exc}")
    if spec.traced_cli and not problems:
        try:
            with open(trace_path, encoding="utf-8") as handle:
                for line in handle:
                    json.loads(line)
                    spans += 1
        except (OSError, ValueError) as exc:
            problems.append(f"trace is not JSONL: {exc}")
        if spans == 0:
            problems.append("trace has no spans")
    for problem in problems:
        outcome.fail(f"{label}: {problem}")
    return result, spans


def timed(name: str, seed: int, seconds: float) -> Outcome:
    spec = SPECS[name]
    outcome = Outcome()
    corpus = os.path.join(WORK, f"{spec.package}-{seed}.xmi")
    setup_walls = setup_corpus(corpus, spec.package, SIZE, seed,
                               repair=False)
    reference, _ = reference_document(spec.package, seed)

    walls: List[float] = []
    rss: List[float] = []
    span_counts = set()
    while not walls or sum(walls) < seconds:
        result, spans = _check_once(spec, corpus, reference, outcome,
                                    f"check #{len(walls)}")
        walls.append(result.wall_s)
        rss.append(result.rss_mb)
        span_counts.add(spans)
    if spec.traced_cli and len(span_counts) != 1:
        outcome.fail(f"span count differs between runs: "
                     f"{sorted(span_counts)}")

    outcome.put("setup_s", median(setup_walls), "s")
    outcome.put("check_wall_s", median(walls), "s")
    outcome.put("peak_rss_mb", median(rss), "MB")
    outcome.put("ops_per_s", len(walls) / sum(walls), "1/s")
    outcome.put("p50_ms", percentile(walls, 50) * 1e3, "ms")
    outcome.put("p90_ms", percentile(walls, 90) * 1e3, "ms")
    outcome.put("checks", len(walls), "count")
    if spec.traced_cli:
        outcome.put("obs.spans", span_counts.pop(), "count")
        outcome.put("obs.trace_mb", os.path.getsize(
            os.path.join(WORK, "cli-trace.jsonl")) / 1e6, "MB")
    return outcome


# -- traced run -------------------------------------------------------------

FAMILY_ORDER = ("structural", "invariant", "wellformed", "lint",
                "consistency")


def pipeline(corpus: str, started: float, obs_path: str, spans_path: str,
             doc_path: str) -> Dict[str, Any]:
    """The CLI's ``check`` steps, each timed as a span (child process).

    Writes the spans and the rendered document; returns the layer times.
    """
    spans = Spans()
    with spans.span("cli.import"):
        from repro import cli, obs
        from repro.analysis import LintConfig
        from repro.session import CheckResult, Session

    sink = None
    if obs_path:
        sink = obs.JsonlSink(obs_path)
        obs.enable(sink)
    try:
        with spans.span("xmi.load"):
            model = cli.load_model(corpus)
        with spans.span("session.init"):
            # a full check drops lint's bridge to the wellformed rules
            # (the wellformed family reports them); one family at a
            # time needs that said explicitly
            session = Session(model, lint_config=LintConfig(
                disabled={"uml-wellformed"}))
        by_family = {}
        for family in FAMILY_ORDER:
            with spans.span(f"check.{family}"):
                by_family[family] = session.check(
                    families=(family,)).by_family[family]
        with spans.span("render.json"):
            text = CheckResult(by_family).render("json")
    finally:
        if sink is not None:
            obs.disable()
            obs.remove_sink(sink)
            sink.close()
    in_process = time.perf_counter() - started
    with open(doc_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    spans.write_jsonl(spans_path)
    return {"layers": spans.self_times(), "elements": model.size(),
            "in_process_s": in_process}


def count_pass(corpus: str, with_obs: bool) -> Dict[str, Any]:
    """Untimed exact counts of one load + full check (child process)."""
    from repro import cli, obs
    from repro.session import Session

    before = ocl_cache_counts()
    with KernelCounts() as kernel:
        model = cli.load_model(corpus)
    counts: Dict[str, Any] = {"mof.load_writes": kernel.writes,
                              "mof.load_notifications": kernel.notifications}
    sink = None
    obs_path = corpus + ".count-trace.jsonl"
    if with_obs:
        if os.path.exists(obs_path):
            os.remove(obs_path)
        sink = obs.JsonlSink(obs_path)
        obs.enable(sink)
    try:
        result = Session(model).check()
    finally:
        if sink is not None:
            obs.disable()
            obs.remove_sink(sink)
            sink.close()
    after = ocl_cache_counts()
    counts["ocl.compile_cache_hits"] = after["hits"] - before["hits"]
    counts["ocl.compile_cache_misses"] = after["misses"] - before["misses"]
    counts["diagnostics"] = {family: len(diags)
                             for family, diags in result.by_family.items()}
    if with_obs:
        counts["obs.spans"] = _line_count(obs_path)
    return counts


def enabled_ratio(corpus: str) -> float:
    """In-process ``Session.check`` with tracing on over tracing off
    (child process; the first check warms the caches)."""
    from repro import cli, obs
    from repro.session import Session

    session = Session(cli.load_model(corpus))
    session.check()
    started = time.perf_counter()
    session.check()
    off = time.perf_counter() - started
    sink = obs.JsonlSink(corpus + ".ratio-trace.jsonl")
    obs.enable(sink)
    try:
        started = time.perf_counter()
        session.check()
        on = time.perf_counter() - started
    finally:
        obs.disable()
        obs.remove_sink(sink)
        sink.close()
    return on / off


def traced(name: str, seed: int, seconds: float) -> Outcome:
    spec = SPECS[name]
    outcome = Outcome()
    corpus = os.path.join(WORK, f"{spec.package}-{seed}.xmi")
    generate_corpus(corpus, spec.package, SIZE, seed, repair=False)
    reference, generate_s = reference_document(spec.package, seed)
    import_s = fresh_import_s()

    # the workload's own CLI process: the base for overhead and residual
    cli_wall = _check_once(spec, corpus, reference, outcome,
                           "CLI check")[0].wall_s

    out = os.path.join(WORK, "pipeline.json")
    obs_path = os.path.join(WORK, "pipeline-trace.jsonl")
    summary, proc = run_child("pipeline", corpus, out,
                              *(["--obs", obs_path] if spec.traced_cli
                                else []))
    outcome.attempted += 1
    with open(out + ".doc.json", encoding="utf-8") as handle:
        if _canonical_output(handle.read().encode()) != reference:
            outcome.fail("traced pipeline document differs from the "
                         "reference")
    layer = summary["layers"]
    outcome.put("cli.import_s", import_s, "s")
    outcome.put("generate.s", generate_s, "s")
    outcome.put("xmi.load_s", layer["xmi.load"], "s")
    outcome.put("xmi.load_us_per_element",
                layer["xmi.load"] / summary["elements"] * 1e6, "us")
    outcome.put("session.init_s", layer["session.init"], "s")
    for family in FAMILY_ORDER:
        outcome.put(f"check.{family}_s", layer[f"check.{family}"], "s")
    outcome.put("render.json_s", layer["render.json"], "s")
    measured = [(name, layer[name]) for name in
                ["cli.import", "xmi.load", "session.init"]
                + [f"check.{f}" for f in FAMILY_ORDER] + ["render.json"]]
    unaccounted = cli_wall - sum(value for _, value in measured)
    outcome.put("unaccounted_s", unaccounted, "s")
    outcome.put("cli.unaccounted_s", unaccounted, "s")
    outcome.put("traced.wall_s", proc.wall_s, "s")
    outcome.put("traced.overhead_ratio", proc.wall_s / cli_wall, "ratio")
    outcome.put("untraced.check_wall_s", cli_wall, "s")
    outcome.reconciliation = _reconcile(measured, summary, proc.wall_s,
                                        cli_wall)

    passes = [run_child("counts", corpus,
                        os.path.join(WORK, f"counts{i}.json"),
                        *(["--obs"] if spec.traced_cli else []))[0]
              for i in range(2)]
    outcome.counts = passes[0]
    if passes[0] != passes[1]:
        outcome.fail(f"exact counts differ between passes: {passes}")
    for key in ("mof.load_writes", "mof.load_notifications",
                "ocl.compile_cache_hits", "ocl.compile_cache_misses"):
        outcome.put(key, passes[0][key], "count")
    if spec.traced_cli:
        outcome.put("obs.spans", passes[0]["obs.spans"], "count")
        outcome.put("obs.trace_mb", os.path.getsize(obs_path) / 1e6, "MB")
        ratio, _ = run_child("obs-ratio", corpus,
                             os.path.join(WORK, "ratio.json"))
        outcome.put("obs.enabled_check_ratio", ratio["ratio"], "ratio")
    return outcome


def _line_count(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def _reconcile(measured: List[Tuple[str, float]], summary: Dict[str, Any],
               traced_wall: float, cli_wall: float) -> List[str]:
    """Layer times of the traced process against both process walls."""
    lines = [f"{'layer (traced process)':<26}{'seconds':>10}"
             f"{'of CLI wall':>13}"]
    for name, value in measured:
        lines.append(f"{name:<26}{value:>10.4f}{value / cli_wall:>12.1%}")
    total = sum(value for _, value in measured)
    lines.append(f"{'sum of layers':<26}{total:>10.4f}"
                 f"{total / cli_wall:>12.1%}")
    lines.append(f"{'traced process wall':<26}{traced_wall:>10.4f}  = "
                 f"layers + glue {summary['in_process_s'] - total:+.4f} s "
                 f"+ start and exit "
                 f"{traced_wall - summary['in_process_s']:+.4f} s")
    lines.append(f"{'untraced CLI wall':<26}{cli_wall:>10.4f}  = "
                 f"layers + unaccounted {cli_wall - total:+.4f} s "
                 f"(start, argument parsing, output, exit, less what the "
                 f"traced split itself costs)")
    return lines
