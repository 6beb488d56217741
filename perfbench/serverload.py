"""The server workload: WAL-backed ``repro serve`` under closed-loop edits.

Set-up generates a repaired corpus with ``repro generate --repair``
(repeated, byte-identical) and starts ``repro serve --port 0 --wal-dir
DIR --load main=FILE``.  One load process (this one) opens at most
``nproc`` (and no more than two) ``TcpClient`` connections.  Each warms
up with one full ``check``, then repeats for the run's seconds (and past
them until one WAL compaction's worth of edits is acknowledged): one
``edit-txn`` of 1-4 seeded ``set name`` ops, then ``check``.  A conflict
is replayed at once with the refreshed ``base_epoch`` and counted.  The
run ends with a SIGTERM drain, which must exit 0.

Gates: acknowledged edits == final epoch == ``edits_applied``; conflicts
== ``edits_rejected`` (both read with the ``stats`` verb); every
``check`` document is clean (renames to fresh names keep the repaired
corpus free of errors); the drain exits 0.

The traced run hosts ``ModelServer(wal_dir=...)`` and a ``TcpServer``
thread in this process with the same corpus and client sequence, with
timing wrappers around the server's layers.
"""

from __future__ import annotations

import gc
import os
import random
import re
import signal
import subprocess
import threading
import time
from typing import Any, Dict, List, Tuple

from common import (WORK, Outcome, bounded_by_cores, fresh_import_s,
                    generate_corpus, median, percentile, repro_cli,
                    repro_env, run_child, setup_corpus)
from layers import KernelCounts, Spans, TimedLock, ocl_cache_counts

SIZE = 10000
REPO = "main"
#: closed-loop connections (capped by the core count)
CLIENTS = 2
#: edit-txns in each untimed exact-count pass
COUNT_EDITS = 24

_LIVE: List[subprocess.Popen] = []


def stop_all() -> None:
    """Kill and reap any server process a failed run left behind."""
    while _LIVE:
        proc = _LIVE.pop()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def corpus_targets(path: str) -> List[str]:
    """Element ids of the generated file (every demo element is named)."""
    with open(path, encoding="utf-8") as handle:
        return re.findall(r'\bid="([^"]+)"', handle.read())


def edit_ops(rng: random.Random, targets: List[str], client: int,
             serial: int) -> List[Dict[str, Any]]:
    """1-4 ``set name`` ops; every new name is fresh."""
    return [{"op": "set", "element": rng.choice(targets), "feature": "name",
             "value": f"c{client}e{serial}o{index}"}
            for index in range(rng.randint(1, 4))]


# -- the closed loop ----------------------------------------------------------

class ClientLoop:
    """One connection's closed loop: edit-txn then check, until the end."""

    def __init__(self, client: Any, index: int, seed: int,
                 targets: List[str], epoch: int) -> None:
        self.client = client
        self.index = index
        self.rng = random.Random(f"{seed}:{index}")
        self.targets = targets
        self.epoch = epoch
        self.edit_ms: List[float] = []
        self.check_ms: List[float] = []
        self.edit_attempts = 0
        self.conflicts = 0
        self.acked = 0
        self.attempted = 0
        self.problems: List[str] = []

    def run(self, start: threading.Barrier, end_at: List[float],
            shared: "AckCounter") -> None:
        from repro.server import RemoteError, TransportError
        start.wait()
        serial = 0
        try:
            while not self.problems and not (
                    time.perf_counter() >= end_at[0] and shared.done()):
                self._edit(serial)
                shared.add()
                serial += 1
                self._check()
        except (RemoteError, TransportError, OSError) as exc:
            self.problems.append(f"client {self.index}: {exc}")

    def _edit(self, serial: int) -> None:
        from repro.server import RemoteError
        ops = edit_ops(self.rng, self.targets, self.index, serial)
        self.attempted += 1
        started = time.perf_counter()
        while True:
            self.edit_attempts += 1
            try:
                ack = self.client.request("edit-txn", repo=REPO,
                                          base_epoch=self.epoch, ops=ops)
            except RemoteError as exc:
                if exc.code != "conflict":
                    raise
                self.conflicts += 1
                self.epoch = exc.data["current_epoch"]
                continue
            break
        self.edit_ms.append((time.perf_counter() - started) * 1e3)
        self.epoch = ack["epoch"]
        self.acked += 1

    def _check(self) -> None:
        self.attempted += 1
        started = time.perf_counter()
        document = self.client.request("check", repo=REPO)
        self.check_ms.append((time.perf_counter() - started) * 1e3)
        self.epoch = document["epoch"]
        if not document["ok"]:
            self.problems.append(
                f"client {self.index}: check at epoch {document['epoch']} "
                f"has {document['errors']} error(s)")


class AckCounter:
    """Acknowledged edits across connections.

    The loop runs for the run's seconds and, past them, until the log
    has taken one compaction's worth of records, so every run spans at
    least one WAL compaction.
    """

    def __init__(self) -> None:
        from repro.server.durability import DEFAULT_COMPACT_EVERY
        self._lock = threading.Lock()
        self._count = 0
        self._target = DEFAULT_COMPACT_EVERY

    def add(self) -> None:
        with self._lock:
            self._count += 1

    def done(self) -> bool:
        with self._lock:
            return self._count >= self._target


def drive(host: str, port: int, seed: int, seconds: float,
          targets: List[str], outcome: Outcome) -> Dict[str, Any]:
    """Warm up, run the closed loop, read stats, final check.

    Returns the raw figures; gate failures go to *outcome*.
    """
    from repro.server import TcpClient

    count = bounded_by_cores(CLIENTS)
    clients = [TcpClient(host, port, timeout=60.0) for _ in range(count)]
    try:
        warm_s, warm_windows, epochs = [], [], []
        for index, client in enumerate(clients):
            # the second connection asks with an explicit severity floor
            # so it pays its own full pass instead of reading the first
            # connection's cached document
            params = {} if index == 0 else {"severity": "info"}
            started = time.perf_counter()
            document = client.request("check", repo=REPO, **params)
            ended = time.perf_counter()
            outcome.attempted += 1
            warm_s.append(ended - started)
            warm_windows.append((started, ended))
            epochs.append(document["epoch"])
            if not document["ok"]:
                outcome.fail(f"warm-up check has {document['errors']} "
                             f"error(s)")
        before = [_engine_runs(c) for c in clients]

        loops = [ClientLoop(c, i, seed, targets, epochs[i])
                 for i, c in enumerate(clients)]
        barrier = threading.Barrier(len(loops) + 1)
        end_at = [0.0]
        shared = AckCounter()
        threads = [threading.Thread(target=loop.run,
                                    args=(barrier, end_at, shared),
                                    name=f"bench-client-{loop.index}")
                   for loop in loops]
        for thread in threads:
            thread.start()
        loop_start = time.perf_counter()
        end_at[0] = loop_start + seconds
        barrier.wait()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        loop_wall = time.perf_counter() - loop_start

        after = [_engine_runs(c) for c in clients]
        final = clients[0].request("check", repo=REPO)
        stats = clients[0].request("stats", repo=REPO)
        outcome.attempted += 2
    finally:
        for client in clients:
            client.close()

    for loop in loops:
        outcome.attempted += loop.attempted
        for problem in loop.problems:
            outcome.fail(problem)
    acked = sum(loop.acked for loop in loops)
    conflicts = sum(loop.conflicts for loop in loops)
    summary = stats["server"]
    if not (acked == summary["epoch"] == summary["edits_applied"]):
        outcome.fail(f"acknowledged edits {acked}, epoch {summary['epoch']}, "
                     f"edits_applied {summary['edits_applied']} differ")
    if conflicts != summary["edits_rejected"]:
        outcome.fail(f"conflicts {conflicts} != edits_rejected "
                     f"{summary['edits_rejected']}")
    if not final["ok"]:
        outcome.fail(f"final check has {final['errors']} error(s)")

    edit_ms = [v for loop in loops for v in loop.edit_ms]
    check_ms = [v for loop in loops for v in loop.check_ms]
    checks = len(check_ms)
    return {
        "clients": len(clients), "warm_s": warm_s,
        "warm_windows": warm_windows, "loop_start": loop_start,
        "loop_wall": loop_wall, "edit_ms": edit_ms, "check_ms": check_ms,
        "acked": acked, "conflicts": conflicts,
        "edit_attempts": sum(loop.edit_attempts for loop in loops),
        "stats": stats,
        "reruns_per_check": (sum(after) - sum(before)) / checks
        if checks else 0.0,
    }


def _engine_runs(client: Any) -> int:
    """Lifetime unit runs of this connection's incremental engine."""
    stats = client.request("stats", repo=REPO)
    match = re.search(r"lifetime runs (\d+)", stats["engine"]["stats"])
    return int(match.group(1))


def _counter(stats: Dict[str, Any], name: str, **labels: str) -> float:
    family = stats["metrics"].get(name, {"series": []})
    return sum(entry["value"] for entry in family["series"]
               if all(entry["labels"].get(k) == v
                      for k, v in labels.items()))


def _put_loop_figures(outcome: Outcome, figures: Dict[str, Any]) -> None:
    edit_ms, check_ms = figures["edit_ms"], figures["check_ms"]
    both = edit_ms + check_ms
    stats = figures["stats"]
    appends = stats["server"]["wal"]["appended"]
    hits = _counter(stats, "server.check_cache", result="hit")
    misses = _counter(stats, "server.check_cache", result="miss")
    outcome.put("check_wall_s", median(figures["warm_s"]), "s")
    outcome.put("first_check_s", figures["warm_s"][0], "s")
    outcome.put("ops_per_s", len(both) / figures["loop_wall"], "1/s")
    outcome.put("p50_ms", percentile(both, 50), "ms")
    outcome.put("p90_ms", percentile(both, 90), "ms")
    outcome.put("edit_p50_ms", percentile(edit_ms, 50), "ms")
    outcome.put("edit_p90_ms", percentile(edit_ms, 90), "ms")
    outcome.put("check_p50_ms", percentile(check_ms, 50), "ms")
    outcome.put("check_p90_ms", percentile(check_ms, 90), "ms")
    outcome.put("edits", len(edit_ms), "count")
    outcome.put("checks", len(check_ms), "count")
    outcome.put("clients", figures["clients"], "count")
    outcome.put("server.conflict_ratio",
                figures["conflicts"] / figures["edit_attempts"], "ratio")
    outcome.put("server.check_cache_hit_ratio", hits / (hits + misses),
                "ratio")
    outcome.put("incremental.reruns_per_check", figures["reruns_per_check"],
                "count")
    outcome.put("wal.appends", appends, "count")
    outcome.put("wal.compactions", stats["server"]["wal"]["compactions"],
                "count")
    outcome.put("wal.bytes_per_edit",
                _counter(stats, "server.wal.bytes") / appends
                if appends else 0.0, "B")


# -- the served process ---------------------------------------------------------

class ServedProcess:
    """A ``repro serve`` child and a thread collecting its output."""

    def __init__(self, corpus: str, wal_dir: str) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_cli("serve", "--port", "0", "--wal-dir", wal_dir,
                      "--load", f"{REPO}={corpus}"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=repro_env())
        _LIVE.append(self.proc)
        self.lines: List[bytes] = []
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read,
                                        name="bench-serve-output")
        self._reader.start()
        if not self._listening.wait(timeout=120.0):
            raise RuntimeError(f"repro serve did not start: "
                               f"{b''.join(self.lines)[-2000:]!r}")
        self.listen_s = time.perf_counter() - started
        match = re.search(rb"listening on ([\d.]+):(\d+)", self.lines[-1])
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if b" listening on " in line:
                self._listening.set()
        self._listening.set()          # EOF: do not leave the waiter hanging

    def drain(self) -> Tuple[int, float, bytes]:
        """SIGTERM drain; returns (exit code, peak RSS MB, output)."""
        self.proc.send_signal(signal.SIGTERM)
        self._reader.join(timeout=60.0)      # until the server closes it
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        _LIVE.remove(self.proc)
        return (self.proc.returncode, usage.ru_maxrss / 1024.0,
                b"".join(self.lines))


def _served_run(corpus: str, seed: int, seconds: float,
                outcome: Outcome, wal_dir: str) -> Tuple[Dict[str, Any],
                                                         float, float]:
    targets = corpus_targets(corpus)
    served = ServedProcess(corpus, wal_dir)
    try:
        figures = drive(served.host, served.port, seed, seconds, targets,
                        outcome)
    finally:
        code, rss, output = served.drain()
    outcome.attempted += 1
    if code != 0:
        outcome.fail(f"drain exited {code}: {output[-500:]!r}")
    return figures, served.listen_s, rss


def timed(name: str, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    corpus = os.path.join(WORK, f"server-{seed}.xmi")
    generate_walls = setup_corpus(corpus, "demo", SIZE, seed, repair=True)
    figures, listen_s, rss = _served_run(
        corpus, seed, seconds, outcome, os.path.join(WORK, "wal"))
    outcome.put("setup_s", median(generate_walls) + listen_s, "s")
    outcome.put("serve.listen_s", listen_s, "s")
    outcome.put("peak_rss_mb", rss, "MB")
    _put_loop_figures(outcome, figures)
    return outcome


# -- traced run -----------------------------------------------------------------

def _install(spans: Spans) -> None:
    from repro.incremental.engine import (IncrementalEngine, InvariantUnit,
                                          StructuralUnit)
    from repro.server import dispatch, durability, transport
    from repro.session import CheckResult

    spans.wrap(dispatch.ServerConnection, "handle_frame", "",
               namer=lambda conn, frame, *a, **k:
               f"server.{frame.get('verb')}.handle")
    spans.wrap(dispatch, "apply_edit_ops", "mof.txn_apply")
    spans.wrap(IncrementalEngine, "revalidate", "incremental.revalidate")
    spans.wrap(IncrementalEngine, "check_result", "incremental.report")
    spans.wrap(StructuralUnit, "run", "unit.structural")
    spans.wrap(InvariantUnit, "run", "unit.invariant")
    spans.wrap(CheckResult, "to_json", "render.to_json")
    spans.wrap(transport, "encode_frame", "protocol.encode")
    spans.wrap(durability.WriteAheadLog, "append_txn", "wal.append")
    spans.wrap(durability.WriteAheadLog, "compact", "wal.compact")


def _children(spans: Spans, parent_name: str) -> List[Dict[str, float]]:
    """Per *parent_name* span: its duration and its children's totals."""
    rows: Dict[int, Dict[str, float]] = {}
    for index, record in enumerate(spans.records):
        if record["name"] == parent_name and record["end"] is not None:
            rows[index] = {"_total": record["end"] - record["start"],
                           "_start": record["start"]}
    for record in spans.records:
        parent = record["parent"]
        if parent in rows and record["end"] is not None:
            row = rows[parent]
            row[record["name"]] = row.get(record["name"], 0.0) + \
                record["end"] - record["start"]
    return list(rows.values())


def _in_process_run(corpus: str, seed: int, seconds: float,
                    outcome: Outcome) -> Dict[str, Any]:
    from repro import cli
    from repro.server import ModelServer, TcpServer
    from repro.session import Session

    spans = Spans()
    with spans.span("xmi.load"):
        model = cli.load_model(corpus)
    with spans.span("session.init"):
        session = Session(model)
    server = ModelServer(wal_dir=os.path.join(WORK, "wal-traced"))
    with spans.span("server.attach"):
        state = server.attach(REPO, session)
    state.lock = TimedLock(state.lock, spans, "server.lock_wait")
    _install(spans)
    tcp = TcpServer(server, "127.0.0.1", 0).start()
    try:
        host, port = tcp.address
        figures = drive(host, port, seed, seconds, corpus_targets(corpus),
                        outcome)
    finally:
        tcp.drain(timeout=10.0)
        spans.unwrap_all()
    spans.write_jsonl(os.path.join(WORK, f"spans-server-{seed}.jsonl"))
    figures.update(spans=spans, elements=model.size())
    return figures


def count_pass(corpus: str, seed: int, wal_dir: str) -> Dict[str, Any]:
    """Untimed exact counts (child process): load, then check and a
    fixed script of edit-txns each followed by check, in process."""
    from repro import cli
    from repro.server import InProcessClient, ModelServer
    from repro.session import Session

    before = ocl_cache_counts()
    with KernelCounts() as kernel:
        model = cli.load_model(corpus)
    server = ModelServer(wal_dir=wal_dir)
    server.attach(REPO, Session(model))
    client = InProcessClient(server)
    try:
        document = client.request("check", repo=REPO)
        units = client.request("stats", repo=REPO)["engine"]["units"]
        runs_before = _engine_runs(client)
        rng = random.Random(f"{seed}:count")
        targets = corpus_targets(corpus)
        epoch = document["epoch"]
        for serial in range(COUNT_EDITS):
            epoch = client.request("edit-txn", repo=REPO, base_epoch=epoch,
                                   ops=edit_ops(rng, targets, 0,
                                                serial))["epoch"]
            document = client.request("check", repo=REPO)
        stats = client.request("stats", repo=REPO)
        reruns = _engine_runs(client) - runs_before
    finally:
        client.close()
        server.shutdown()
    after = ocl_cache_counts()
    return {"mof.load_writes": kernel.writes,
            "mof.load_notifications": kernel.notifications,
            "ocl.compile_cache_hits": after["hits"] - before["hits"],
            "ocl.compile_cache_misses": after["misses"] - before["misses"],
            "incremental.units": units,
            "incremental.reruns": reruns,
            "wal.appends": stats["server"]["wal"]["appended"],
            "epoch": epoch,
            "diagnostics": {family: len(diags) for family, diags
                            in document["families"].items()}}


def traced(name: str, seed: int, seconds: float) -> Outcome:
    from repro.generate import generate_model

    outcome = Outcome()
    corpus = os.path.join(WORK, f"server-{seed}.xmi")
    generate_corpus(corpus, "demo", SIZE, seed, repair=True)
    import_s = fresh_import_s()

    untraced = Outcome()
    reference, _, _ = _served_run(corpus, seed, seconds, untraced,
                                  os.path.join(WORK, "wal"))
    outcome.attempted += untraced.attempted
    for problem in untraced.problems:
        outcome.fail(f"untraced: {problem}")

    started = time.perf_counter()
    generated = generate_model("demo", size=SIZE, seed=seed, repair=True)
    generate_s = time.perf_counter() - started
    del generated
    gc.collect()
    figures = _in_process_run(corpus, seed, seconds, outcome)
    _put_loop_figures(outcome, figures)
    spans: Spans = figures["spans"]

    loop_start = figures["loop_start"]
    warm_start, warm_end = figures["warm_windows"][0]

    def in_warmup(record: Dict[str, Any]) -> bool:
        return warm_start <= record["start"] and record["end"] <= warm_end

    def p50_ms(name: str) -> float:
        values = [r["end"] - r["start"] for r in spans.records
                  if r["name"] == name and r["end"] is not None
                  and r["start"] >= loop_start]
        return percentile(values, 50) * 1e3 if values else 0.0

    load_s = sum(spans.durations("xmi.load"))
    outcome.put("cli.import_s", import_s, "s")
    outcome.put("generate.s", generate_s, "s")
    outcome.put("xmi.load_s", load_s, "s")
    outcome.put("xmi.load_us_per_element",
                load_s / figures["elements"] * 1e6, "us")
    outcome.put("session.init_s", sum(spans.durations("session.init")), "s")
    outcome.put("server.attach_s", sum(spans.durations("server.attach")),
                "s")
    for family in ("structural", "invariant"):
        outcome.put(f"check.{family}_s", sum(
            r["end"] - r["start"] for r in spans.records
            if r["name"] == f"unit.{family}" and r["end"] is not None
            and in_warmup(r)), "s")
    outcome.put("mof.txn_apply_ms", p50_ms("mof.txn_apply"), "ms")
    outcome.put("incremental.revalidate_ms", p50_ms("incremental.revalidate"),
                "ms")
    outcome.put("incremental.report_ms", p50_ms("incremental.report"), "ms")
    outcome.put("wal.append_ms", p50_ms("wal.append"), "ms")
    compacts = spans.durations("wal.compact")
    outcome.put("wal.compact_s", median(compacts) if compacts else 0.0, "s")
    waits = [w * 1e3 for w in spans.durations("server.lock_wait")]
    outcome.put("server.lock_wait_p50_ms", percentile(waits, 50), "ms")
    outcome.put("server.lock_wait_p90_ms", percentile(waits, 90), "ms")

    loop_end = loop_start + figures["loop_wall"]
    rows = {verb: [row for row in _children(spans, f"server.{verb}.handle")
                   if loop_start <= row["_start"] < loop_end]
            for verb in ("edit-txn", "check")}
    handle_ms = {verb: percentile([r["_total"] for r in rows[verb]], 50) * 1e3
                 for verb in rows}
    encode_ms = percentile([r.get("render.to_json", 0.0)
                            + r.get("protocol.encode", 0.0)
                            for r in rows["check"]], 50) * 1e3
    client_ms = figures["edit_ms"] + figures["check_ms"]
    handle_total_ms = sum(r["_total"] for verb in rows
                          for r in rows[verb]) * 1e3
    wire_ms = (sum(client_ms) - handle_total_ms) / len(client_ms)
    outcome.put("server.edit.handle_ms", handle_ms["edit-txn"], "ms")
    outcome.put("server.check.handle_ms", handle_ms["check"], "ms")
    outcome.put("server.encode_ms", encode_ms, "ms")
    outcome.put("render.json_s", encode_ms / 1e3, "s")
    outcome.put("server.wire_ms", wire_ms, "ms")
    outcome.put("unaccounted_s", wire_ms / 1e3, "s")
    ref_ops = len(reference["edit_ms"]) + len(reference["check_ms"])
    untraced_ops = ref_ops / reference["loop_wall"]
    outcome.put("untraced.ops_per_s", untraced_ops, "1/s")
    outcome.put("traced.overhead_ratio",
                untraced_ops / outcome.report["ops_per_s"][0], "ratio")
    outcome.reconciliation = _reconcile(rows, figures)

    passes = [run_child("server-counts", corpus, str(seed),
                        os.path.join(WORK, f"wal-count{i}"),
                        os.path.join(WORK, f"counts{i}.json"))[0]
              for i in range(2)]
    outcome.counts = passes[0]
    if passes[0] != passes[1]:
        outcome.fail(f"exact counts differ between passes: {passes}")
    for key in ("mof.load_writes", "mof.load_notifications",
                "ocl.compile_cache_hits", "ocl.compile_cache_misses",
                "incremental.units"):
        outcome.put(key, passes[0][key], "count")
    return outcome


def _reconcile(rows: Dict[str, List[Dict[str, float]]],
               figures: Dict[str, Any]) -> List[str]:
    """Loop time per acknowledged operation: the client's time is the
    server's handle time (conflict replays included) plus the wire, and
    the handle time is its traced layers plus the rest of dispatch."""
    client = {"edit-txn": figures["edit_ms"], "check": figures["check_ms"]}
    layers = ("server.lock_wait", "mof.txn_apply", "wal.append",
              "wal.compact", "incremental.revalidate", "incremental.report",
              "render.to_json", "protocol.encode")
    columns = {}
    for verb, verb_rows in rows.items():
        ops = max(len(client[verb]), 1)
        column = {name: sum(r.get(name, 0.0) for r in verb_rows) / ops * 1e3
                  for name in layers}
        column["handle"] = sum(r["_total"] for r in verb_rows) / ops * 1e3
        column["dispatch rest"] = column["handle"] - sum(
            column[name] for name in layers)
        column["client"] = sum(client[verb]) / ops
        column["wire"] = column["client"] - column["handle"]
        columns[verb] = column
    lines = [f"{'ms per acknowledged op':<30}{'edit-txn':>10}{'check':>10}"]
    for name in layers + ("dispatch rest", "handle", "wire", "client"):
        lines.append(f"  {name:<28}{columns['edit-txn'][name]:>10.3f}"
                     f"{columns['check'][name]:>10.3f}")
    lines.append(f"  handles per op: edit-txn "
                 f"{len(rows['edit-txn']) / max(len(client['edit-txn']), 1):.2f}"
                 f" (conflict replays), check "
                 f"{len(rows['check']) / max(len(client['check']), 1):.2f}")
    lines.append("  client = handle + wire by construction; wire can read "
                 "negative in process, where a handle span closes only when "
                 "its server thread next holds the interpreter lock")
    return lines
