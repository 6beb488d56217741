"""Crash-recovery smoke: SIGKILL a WAL-backed server, restart, verify.

CI drives the durability contract end to end over the real CLI:

1. start `python -m repro serve --wal-dir W` as a subprocess,
   pre-loading a generated corpus;
2. commit EDITS edit-txns over TCP, recording every acknowledged op;
3. `SIGKILL` the server — no drain, no flush beyond the per-record
   fsync the WAL already did before each ack;
4. restart `serve --wal-dir W` (no --load: recovery must attach the
   repository from the log alone) and assert the recovery banner;
5. compare the restarted server's check document byte-for-byte against
   a local shadow session that applied exactly the acknowledged ops;
6. SIGTERM the restarted server and require the drain banner + exit 0.

Exits non-zero (with a reason on stderr) on any violation.
"""

import re
import signal
import subprocess
import sys
import tempfile

EDITS = 12


def fail(reason):
    print(f"crash_recovery_smoke: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def start_server(args):
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = []
    for _ in range(10):
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            return proc, match.group(1), int(match.group(2)), lines
    proc.kill()
    proc.wait()
    fail(f"no listen banner, got: {lines!r}")


def main():
    from repro.cli import load_model
    from repro.mof.txn import transaction
    from repro.server import ModelServer, TcpClient, apply_edit_ops
    from repro.session import Session, canonical_check_document
    from repro.xmi import write_xml

    workdir = tempfile.mkdtemp(prefix="repro-crash-smoke-")
    corpus = f"{workdir}/corpus.xmi"
    wal_dir = f"{workdir}/wal"
    session = Session.generate("demo", size=300, seed=17, repair=True)
    with open(corpus, "w", encoding="utf-8") as handle:
        handle.write(write_xml(session.model))

    proc, host, port, _ = start_server(
        ["--wal-dir", wal_dir, "--load", f"main={corpus}"])
    acked = []
    try:
        # eids are deterministic across XMI load, so a local load names
        # the same elements the server hosts
        eids = []
        for root in session.model.roots:
            for element in [root] + list(root.all_contents()):
                feature = element.meta.all_features().get("name")
                if feature is not None and not feature.many:
                    eids.append(element.eid)
        with TcpClient(host, port) as client:
            for index in range(EDITS):
                ops = [{"op": "set", "element": eids[index],
                        "feature": "name", "value": f"durable-{index}"}]
                result = client.request("edit-txn", repo="main",
                                        base_epoch=index, ops=ops)
                if result["epoch"] != index + 1:
                    fail(f"unexpected epoch {result['epoch']}")
                acked.append(ops)
        print(f"crash_recovery_smoke: {len(acked)} edit-txns "
              f"acknowledged; killing the server (SIGKILL)")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    proc, host, port, banner = start_server(["--wal-dir", wal_dir])
    try:
        if not any("recovered repository 'main'" in line
                   for line in banner):
            fail(f"no recovery banner, got: {banner!r}")
        with TcpClient(host, port) as client:
            # served by the repository's incremental engine, whose
            # document is byte-identical to Session.check's
            document = client.request("check", repo="main")
            stats = client.request("stats")["server"]["repos"]["main"]
        if document.pop("epoch") != EDITS:
            fail("recovered epoch != acknowledged txns")
        document.pop("repo")
        if stats["edits_applied"] != EDITS:
            fail(f"edits_applied {stats['edits_applied']} != {EDITS}")

        # the shadow: same corpus, exactly the acknowledged ops, same
        # op applier — must be byte-identical
        shadow = load_model(corpus)
        resolver = ModelServer().resolve_metaclass
        for ops in acked:
            with transaction(shadow):
                apply_edit_ops(resolver, shadow, ops, pin_eids=True)
        want = canonical_check_document(Session(shadow).check().to_json())
        got = canonical_check_document(document)
        if got != want:
            fail("recovered check document differs from the shadow "
                 "session's (acknowledged edits lost or torn)")
        print("crash_recovery_smoke: restarted server byte-identical "
              "to the acknowledged-prefix shadow")

        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=30)
        if proc.returncode != 0:
            fail(f"drain exited {proc.returncode}: {output!r}")
        if "draining" not in output or "drained" not in output:
            fail(f"no drain banner: {output!r}")
        print("crash_recovery_smoke: graceful drain — OK")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
