"""serve-mixed: closed-loop ingest beside open-loop reads on one server.

The server is ``ldprecover serve`` (``python -m repro.cli serve``) for
OLH with a 64-seed cohort over a 4096-item domain.  Connection 1 is a
collector: it posts pre-encoded 10k-report batches (a zipf population
with MGA reports mixed in at beta = 0.05) and waits for each ack,
rolling to a new epoch every 50 batches.  Connection 2 is a dashboard:
it reads ``recover`` or ``recover_star`` views at a fixed 50 per second
from the current epoch (dirty, so the server recomputes) or the
previous one (warm), chosen by a seeded draw; each read's latency counts
from the time it was due.

After the load, every epoch's ``raw``/``recover``/``recover_star`` view
is fetched and must equal ``protocol.aggregate`` plus
``recover_frequencies`` over that epoch's concatenated reports, bit for
bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

import numpy as np

from perfbench import layers, reference
from perfbench.common import Context, Outcome, ledger, overhead, setup_seconds
from perfbench.spans import read_jsonl
from perfbench.stats import max_backlog, open_loop, percentile, tail

DOMAIN, EPSILON, COHORT = 4096, 1.0, 64
GENUINE_PER_BATCH, BETA = 9_500, 0.05
EPOCH_BATCHES = 50
#: Distinct pre-encoded batches, cycled; not a multiple of EPOCH_BATCHES,
#: so epochs differ in which batches they hold.
POOL = 64
READ_RATE = 50.0
#: The load window is split into this many stretches, each bracketed by
#: host-speed samples of the reference kernel (see perfbench.reference).
STRETCHES = 4
SERVE_ARGS = (
    "serve", "--protocol", "olh", "--olh-cohort", str(COHORT),
    "--domain-size", str(DOMAIN), "--epsilon", f"{EPSILON:g}", "--port", "0",
)
BOOT_TIMEOUT_S = 60.0
SOCKET_TIMEOUT_S = 30.0


class Connection:
    """A keep-alive HTTP/1.1 client socket that counts bytes both ways."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.sent = 0
        self.received = 0

    def request(self, method: str, path: str, parts: tuple = ()) -> tuple[int, bytes]:
        length = sum(len(part) for part in parts)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head)
        for part in parts:
            self.sock.sendall(part)
        self.sent += len(head) + length
        status_line = self.reader.readline()
        received = len(status_line)
        body_length = 0
        while True:
            line = self.reader.readline()
            received += len(line)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                body_length = int(value)
        body = self.reader.read(body_length)
        self.received += received + len(body)
        return int(status_line.split()[1]), body

    def get_json(self, path: str) -> tuple[int, dict]:
        status, body = self.request("GET", path)
        return status, json.loads(body)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Payloads:
    """The protocol, its attack targets and the pre-encoded batch pool."""

    protocol: object
    targets: tuple
    reports: list
    sizes: list
    fragments: list  # JSON bytes of each batch's wire encoding

    @property
    def targets_query(self) -> str:
        return ",".join(str(t) for t in self.targets)


def build_payloads(seed: int) -> Payloads:
    import repro
    from repro.attacks import MGAAttack
    from repro.datasets import zipf_dataset
    from repro.protocols.base import counts_to_items
    from repro.sim import malicious_count

    gen = np.random.default_rng(seed)
    protocol = repro.make_protocol("olh", epsilon=EPSILON, domain_size=DOMAIN, cohort=COHORT)
    population = zipf_dataset(DOMAIN, GENUINE_PER_BATCH * POOL, rng=gen)
    items = counts_to_items(population.counts, gen)
    attack = MGAAttack(DOMAIN, rng=gen)
    m = malicious_count(GENUINE_PER_BATCH, BETA)
    reports, fragments = [], []
    for b in range(POOL):
        genuine = protocol.perturb(items[b * GENUINE_PER_BATCH:(b + 1) * GENUINE_PER_BATCH], gen)
        batch = protocol.concat_reports(genuine, attack.craft(protocol, m, gen))
        reports.append(batch)
        fragments.append(json.dumps(protocol.encode_reports(batch)).encode("ascii"))
    targets = tuple(int(t) for t in attack.target_items)
    sizes = [protocol.num_reports(batch) for batch in reports]
    return Payloads(protocol, targets, reports, sizes, fragments)


class Server:
    """A server subprocess; stopped with SIGTERM and always waited for."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *SERVE_ARGS]
        else:
            argv = [sys.executable, "-m", "perfbench.serve_traced", spans_path, *SERVE_ARGS]
        self.proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE)
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
            if not ready:
                raise RuntimeError("server did not announce its port in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited during boot")
            line += chunk
        return int(line.decode().strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Stretch:
    """One part of the load window, between two host-speed samples."""

    start: float
    end: float = 0.0
    speed: float = 1.0  # mean of the reference-kernel samples around it
    ingests: list = field(default_factory=list)  # (sent, done, ok, reports)
    reads: list = field(default_factory=list)  # stats.Sample

    def ingest_rate(self) -> float:
        """Reports acknowledged per second of the stretch."""
        acked = sum(reports for _sent, _done, ok, reports in self.ingests if ok)
        return acked / (self.end - self.start)


@dataclass
class Window:
    """What one load window recorded on the client side."""

    stretches: list = field(default_factory=list)
    epochs: dict = field(default_factory=dict)  # epoch index -> pool indices
    sent: int = 0
    received: int = 0
    recomputes: int = 0
    eta: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def start(self) -> float:
        return self.stretches[0].start

    @property
    def end(self) -> float:
        return self.stretches[-1].end

    @property
    def ingests(self) -> list:
        return [entry for part in self.stretches for entry in part.ingests]

    @property
    def reads(self) -> list:
        return [sample for part in self.stretches for sample in part.reads]

    def ingest_ms(self) -> list:
        return [1e3 * (d - s) if ok else float("inf") for s, d, ok, _ in self.ingests]

    def read_ms(self) -> list:
        return [1e3 * sample.latency for sample in self.reads]

    def ingest_rate(self, scaled: bool = True) -> float:
        """Median over stretches of reports acknowledged per (reference) second."""
        return statistics.median(
            [p.ingest_rate() * (p.speed if scaled else 1.0) for p in self.stretches]
        )


def run_window(server: Server, payloads: Payloads, seed: int, seconds: float,
               speed: Callable[[], float]) -> Window:
    """Drive one load window, then read ``/stats`` and the server's peak RSS.

    The window is :data:`STRETCHES` equal stretches.  Between two, both
    connections pause while ``speed()`` samples the host speed;
    the server keeps its state, and the ingest stream and epochs carry on.
    """
    win = Window()
    ingest_conn, read_conn = Connection(server.port), Connection(server.port)
    acked = threading.Event()
    current = [0]
    batch = [0]

    def ingest(part: Stretch, stop: threading.Event) -> None:
        while not stop.is_set():
            i = batch[0]
            epoch = i // EPOCH_BATCHES
            sent = time.perf_counter()
            try:
                status, _ = ingest_conn.request(
                    "POST", "/ingest",
                    (b'{"epoch":"e%d","reports":' % epoch, payloads.fragments[i % POOL], b"}"),
                )
            except OSError:
                # The connection is gone: count the failure, stop posting.
                part.ingests.append((sent, time.perf_counter(), False, payloads.sizes[i % POOL]))
                return
            ok = status == 200
            part.ingests.append((sent, time.perf_counter(), ok, payloads.sizes[i % POOL]))
            if ok:
                win.epochs.setdefault(epoch, []).append(i % POOL)
                current[0] = epoch
                acked.set()
            batch[0] += 1

    n_reads = max(STRETCHES, int(READ_RATE * seconds))
    draws = np.random.default_rng([seed, 1]).random((n_reads, 2))

    def read(i: int) -> bool:
        cur = current[0]
        epoch = cur - 1 if draws[i, 0] < 0.5 and cur > 0 else cur
        if draws[i, 1] < 0.5:
            path = f"/frequencies?epoch=e{epoch}&method=recover"
        else:
            path = f"/frequencies?epoch=e{epoch}&method=recover_star&targets={payloads.targets_query}"
        try:
            return read_conn.request("GET", path)[0] == 200
        except OSError:
            return False

    before = speed()
    bounds = [n_reads * k // STRETCHES for k in range(STRETCHES + 1)]
    for first, last in zip(bounds, bounds[1:]):
        part = Stretch(start=time.perf_counter())
        win.stretches.append(part)
        stop = threading.Event()
        worker = threading.Thread(target=ingest, args=(part, stop), name="perfbench-ingest")
        worker.start()
        try:
            if not acked.wait(BOOT_TIMEOUT_S):
                raise RuntimeError("no ingest was acknowledged")
            part.reads = open_loop(
                [i / READ_RATE for i in range(last - first)], lambda i: read(first + i)
            )
        finally:
            stop.set()
            worker.join()
            part.end = time.perf_counter()
        after = speed()
        part.speed, before = (before + after) / 2, after
    _status, stats = read_conn.get_json("/stats")
    win.recomputes, win.eta = int(stats["recomputes"]), float(stats["eta"])
    win.sent = ingest_conn.sent + read_conn.sent
    win.received = ingest_conn.received + read_conn.received
    win.peak_rss_mb = server.peak_rss_mb()
    ingest_conn.close()
    read_conn.close()
    return win


def verify(server: Server, payloads: Payloads, win: Window, out: Outcome) -> dict:
    """Check every epoch's served views against a batch recomputation.

    Returns a digest of each served view, keyed by ``(epoch, method)``.
    """
    from repro.core.recover import recover_frequencies

    protocol = payloads.protocol
    conn = Connection(server.port)
    references: dict = {}
    digests = {}
    try:
        for epoch, batches in sorted(win.epochs.items()):
            key = tuple(batches)
            if key not in references:
                reports = reduce(protocol.concat_reports, [payloads.reports[b] for b in batches])
                raw = protocol.aggregate(reports)
                references[key] = (protocol.num_reports(reports), {
                    "raw": raw,
                    "recover": recover_frequencies(raw, protocol, eta=win.eta).frequencies,
                    "recover_star": recover_frequencies(
                        raw, protocol, eta=win.eta, target_items=list(payloads.targets)
                    ).frequencies,
                })
            n, views = references[key]
            for method, expected in views.items():
                status, doc = conn.get_json(
                    f"/frequencies?epoch=e{epoch}&method={method}&targets={payloads.targets_query}"
                )
                served = np.asarray(doc.get("frequencies", []), dtype=np.float64)
                out.check(
                    status == 200 and doc.get("num_reports") == n
                    and np.array_equal(served, expected),
                    f"epoch e{epoch} {method} view equals the batch recomputation",
                )
                digests[(epoch, method)] = hashlib.sha256(served.tobytes()).hexdigest()
    finally:
        conn.close()
    return digests


def count_requests(win: Window, out: Outcome) -> None:
    out.attempted += len(win.ingests) + len(win.reads)
    out.failed += sum(1 for _s, _d, ok, _n in win.ingests if not ok)
    out.failed += sum(1 for sample in win.reads if not sample.ok)


def window_layers(win: Window) -> dict:
    """Untraced-window latency tails and generator health, with sample counts."""
    ingest, reads = win.ingest_ms(), win.read_ms()
    read_tail, ingest_tail = tail(reads), tail(ingest)
    late = [1e3 * sample.late for sample in win.reads]
    return {
        "serve.ingest_p50_ms": percentile(ingest, 50),
        "serve.ingest_p99_ms": ingest_tail.value,
        "serve.ingest.samples": float(len(ingest)),
        "serve.read_p50_ms": percentile(reads, 50),
        "serve.read_p99_ms": read_tail.value,
        "serve.read.samples": float(len(reads)),
        "bench.generator.late_p99_ms": tail(late).value,
        "bench.read.backlog_max": float(max_backlog(win.reads)),
    }


#: Per-layer metrics of the batch workloads' exhibit passes and engine.
NO_PASSES = ("sim.exhibit.", "sim.engine.trials", "bench.pass_s", "bench.traced_pass_s")


def serve_mixed(ctx: Context) -> Outcome:
    out = Outcome(idle=NO_PASSES)
    booted: list = []  # (payloads, server); only the last server is running

    def boot() -> float:
        if booted:
            booted[-1][1].stop()
        start = time.perf_counter()
        payloads = build_payloads(ctx.seed)
        server = Server()
        booted.append((payloads, server))
        probe = Connection(server.port)
        healthy = probe.request("GET", "/healthz")[0] == 200
        probe.close()
        if not healthy:
            raise RuntimeError("server failed its health check")
        return time.perf_counter() - start

    try:
        setup = setup_seconds(boot)
        payloads, server = booted[-1]
        with reference.Calibrator(ctx.workload, payloads.fragments) as calibrator:
            win = run_window(server, payloads, ctx.seed, ctx.seconds, calibrator.speed)
            digests = verify(server, payloads, win, out)
            server.stop()  # the traced window boots a server of its own
            if ctx.trace:
                traced_window(ctx, payloads, win, digests, out, calibrator.speed)
    finally:
        if booted:
            booted[-1][1].stop()
    count_requests(win, out)
    out.metrics.update(
        setup_s=setup[0],
        work_per_s=win.ingest_rate(),
        peak_rss_mb=win.peak_rss_mb,
    )
    out.layers.update(window_layers(win))
    out.layers["bench.raw.setup_s"] = setup[1]
    out.layers["bench.speed_factor"] = statistics.median([p.speed for p in win.stretches])
    out.layers["bench.raw.work_per_s"] = win.ingest_rate(scaled=False)
    out.notes.append(
        f"reads {tail(win.read_ms()).label()} ms; ingests {tail(win.ingest_ms()).label()} ms; "
        f"epochs verified {len(win.epochs)}"
    )
    return out


def traced_window(ctx: Context, payloads: Payloads, untraced: Window, digests: dict,
                  out: Outcome, speed: Callable[[], float]) -> None:
    """Repeat the load against a traced server and build the ledger."""
    spans_path = f"{ctx.outdir}/serve-mixed.server.spans.jsonl"
    server = Server(spans_path)
    try:
        win = run_window(server, payloads, ctx.seed, ctx.seconds, speed)
        traced_digests = verify(server, payloads, win, out)
    finally:
        server.stop()
    count_requests(win, out)
    # Views of epochs complete in both runs hold the same batches.
    for (epoch, method), digest in traced_digests.items():
        if (len(win.epochs.get(epoch, ())) == EPOCH_BATCHES
                and len(untraced.epochs.get(epoch, ())) == EPOCH_BATCHES):
            out.check(digests.get((epoch, method)) == digest,
                      f"traced e{epoch} {method} view equals untraced")
    spans = [s for s in read_jsonl(spans_path) if win.start <= s.start <= win.end]
    book = ledger(spans, ctx.per_layer, layers.span_names())

    def span_s(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    ingest_s = sum(done - sent for sent, done, _ok, _n in win.ingests)
    read_s = sum(sample.done - sample.due for sample in win.reads)
    book["serve.http.ingest.self_s"] = ingest_s - span_s("serve.service.ingest")
    book["serve.http.read.wait_s"] = read_s - span_s("serve.service.frequencies")
    book["serve.http.request_bytes"] = float(win.sent)
    book["serve.http.response_bytes"] = float(win.received)
    book["serve.service.recomputes"] = float(win.recomputes)
    book["serve.service.recompute_ratio"] = win.recomputes / max(1, len(win.reads))
    book["bench.trace.overhead_frac"] = overhead(untraced.ingest_rate(), win.ingest_rate())
    out.layers.update(book)
