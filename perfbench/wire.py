"""The engine under test and the load generator's side of the wire.

`Engine` spawns `pstab serve --port P` and holds ONE persistent TCP
connection to it, with the operating system's default socket options: no
TCP_NODELAY and no TCP_QUICKACK on the client, so a server-side write that
waits for a delayed ACK shows up in the measured latency instead of being
hidden by the client.  A receiver thread timestamps every response frame as
it completes; `open_loop` and `closed_loop` drive the two traffic shapes the
workloads use.
"""

import os
import socket
import struct
import subprocess
import threading
import time

SCHEMA = "pstab-serve-v1"
PREFIX = b'{"schema":"pstab-serve-v1","id":'


def frame(payload):
    return struct.pack("<I", len(payload)) + payload


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def frame_id(payload):
    """The id of a response frame (every response starts with PREFIX)."""
    if not payload.startswith(PREFIX):
        return None
    end = payload.find(b",", len(PREFIX))
    try:
        return int(payload[len(PREFIX):end])
    except ValueError:
        return None


class EngineError(RuntimeError):
    pass


class Engine:
    """One `pstab serve` process and one connection to it."""

    def __init__(self, pstab, threads, cache_mb, pstab_threads, stderr):
        self.port = free_port()
        env = dict(os.environ, PSTAB_THREADS=str(pstab_threads))
        self.proc = subprocess.Popen(
            [pstab, "serve", "--port", str(self.port), "--threads",
             str(threads), "--cache-mb", str(cache_mb)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=stderr)
        self.sock = self._connect()
        self.responses = {}  # id -> (perf_counter at arrival, payload)
        self.cv = threading.Condition()
        self.reader_error = None
        self.reader = threading.Thread(target=self._read_loop, daemon=True)
        self.reader.start()
        self.next_id = 1

    def _connect(self):
        deadline = time.monotonic() + 30
        while True:
            if self.proc.poll() is not None:
                raise EngineError("pstab serve exited with code %d"
                                  % self.proc.returncode)
            try:
                return socket.create_connection(("127.0.0.1", self.port),
                                                timeout=None)
            except OSError:
                if time.monotonic() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    raise EngineError("pstab serve never accepted")
                time.sleep(0.002)

    def _read_exact(self, n):
        chunks, got = [], 0
        while got < n:
            chunk = self.sock.recv(n - got)
            if not chunk:
                return None
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _read_loop(self):
        try:
            while True:
                head = self._read_exact(4)
                if head is None:
                    break
                payload = self._read_exact(struct.unpack("<I", head)[0])
                now = time.perf_counter()
                if payload is None:
                    break
                rid = frame_id(payload)
                with self.cv:
                    self.responses[rid] = (now, payload)
                    self.cv.notify_all()
        except OSError as e:
            self.reader_error = str(e)
        with self.cv:
            self.reader_error = self.reader_error or "connection closed"
            self.cv.notify_all()

    def new_id(self):
        rid = self.next_id
        self.next_id += 1
        return rid

    def send(self, payloads):
        """Write frames in one call (a burst leaves the client together)."""
        self.sock.sendall(b"".join(frame(p) for p in payloads))

    def wait(self, rid, timeout=170):
        deadline = time.monotonic() + timeout
        with self.cv:
            while rid not in self.responses:
                if self.reader_error or time.monotonic() > deadline:
                    raise EngineError("no response to id %d (%s)"
                                      % (rid, self.reader_error or "timeout"))
                self.cv.wait(0.5)
            return self.responses[rid]

    def wait_any(self, rids, timeout=170):
        """Block until one of `rids` has a response; return that id."""
        deadline = time.monotonic() + timeout
        with self.cv:
            while True:
                for rid in rids:
                    if rid in self.responses:
                        return rid
                if self.reader_error or time.monotonic() > deadline:
                    raise EngineError("no response (%s)"
                                      % (self.reader_error or "timeout"))
                self.cv.wait(0.5)

    def op(self, name):
        """A stats/shutdown op; returns its raw response payload."""
        rid = self.new_id()
        self.send([b'{"schema":"%s","op":"%s","id":%d}'
                   % (SCHEMA.encode(), name.encode(), rid)])
        return self.wait(rid)[1]

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise EngineError("no VmHWM for the engine")

    def shutdown(self):
        """Graceful shutdown; returns the final stats payload."""
        try:
            final = self.op("shutdown")
        finally:
            self.close()
        return final

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=5)


def request_bytes(req, rid):
    """Serialize one request dict (see workloads.py) as a solve frame."""
    parts = ['{"schema":"%s","op":"solve","id":%d,"solver":"%s","matrix":"%s"'
             % (SCHEMA, rid, req["solver"], req["matrix"])]
    if req.get("rescale"):
        parts.append(',"rescale":true')
    if req.get("max_iter"):
        parts.append(',"max_iter":%d' % req["max_iter"])
    if req.get("rhs_seed"):
        parts.append(',"rhs_seed":%d' % req["rhs_seed"])
    parts.append("}")
    return "".join(parts).encode()


class Sent:
    """One request on the wire: what was asked and when it was due/sent."""
    __slots__ = ("req", "rid", "due", "sent", "done", "payload")

    def __init__(self, req, rid, due, sent):
        self.req, self.rid, self.due, self.sent = req, rid, due, sent
        self.done = None
        self.payload = None


def collect(engine, sent):
    for s in sent:
        s.done, s.payload = engine.wait(s.rid)


def open_loop(engine, bursts, interval_s):
    """Send burst k at t0 + k*interval_s, whatever the engine is doing.

    Returns (sent, lag_s): lag is how late each burst left the generator.
    Latency of an open-loop request is timed from its due time.
    """
    sent, lag = [], []
    t0 = time.perf_counter() + 0.01
    for k, burst in enumerate(bursts):
        due = t0 + k * interval_s
        left = due - time.perf_counter()
        if left > 0:
            time.sleep(left)
        ids = [engine.new_id() for _ in burst]
        now = time.perf_counter()
        engine.send([request_bytes(r, i) for r, i in zip(burst, ids)])
        lag.append(now - due)
        sent.extend(Sent(r, i, due, now) for r, i in zip(burst, ids))
    collect(engine, sent)
    return sent, lag


def closed_loop(engine, reqs, outstanding):
    """Keep `outstanding` requests in flight; latency is timed from send."""
    sent, inflight, queue = [], {}, list(reqs)
    queue.reverse()
    while queue or inflight:
        while queue and len(inflight) < outstanding:
            req = queue.pop()
            rid = engine.new_id()
            now = time.perf_counter()
            engine.send([request_bytes(req, rid)])
            inflight[rid] = Sent(req, rid, now, now)
            sent.append(inflight[rid])
        rid = engine.wait_any(list(inflight))
        s = inflight.pop(rid)
        s.done, s.payload = engine.responses[rid]
    return sent
