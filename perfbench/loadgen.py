"""Open-loop load generator for ``POST /route``.

One process, at most ``os.cpu_count()`` keep-alive connections, one
thread per connection. Every request body is encoded before the clock
starts. Each request has a due time on a seeded Poisson schedule; a free
connection sends the earliest unsent request as soon as it is due, so a
stalled server makes later requests late instead of unsent. Latency is
timed from the due time. Nothing is retried: a non-200 status, a refused
or dropped connection, or a timeout is a failed request.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import socket
import threading
import time

TIMEOUT_S = 2.0


def encode_route(rows: list[list[float]]) -> list[bytes]:
    """Whole HTTP requests, body JSON with round-trip float precision."""
    out = []
    for row in rows:
        body = json.dumps({"demand": row}).encode()
        out.append(
            b"POST /route HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
    return out


def poisson_schedule(rate: float, count: int, seed: int) -> list[float]:
    """``count`` due offsets (seconds from phase start) at ``rate`` per second."""
    rng = random.Random(seed)
    t, out = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.addr = (host, port)
        self.sock: socket.socket | None = None
        self.buf = b""

    def _connect(self) -> None:
        self.sock = socket.create_connection(self.addr, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; return ``(status, body)``. Raises ``OSError``
        (timeouts included) on a transport failure."""
        if self.sock is None:
            self._connect()
        self.sock.sendall(raw)
        while b"\r\n\r\n" not in self.buf:
            self._recv()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        close = False
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            key = key.strip().lower()
            if key == b"content-length":
                length = int(value)
            elif key == b"connection" and value.strip().lower() == b"close":
                close = True
        while len(self.buf) < length:
            self._recv()
        body, self.buf = self.buf[:length], self.buf[length:]
        if close:
            self.close()
        return status, body

    def _recv(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        self.buf += chunk


def get_json(host: str, port: int, path: str) -> dict:
    conn = Connection(host, port)
    try:
        status, body = conn.request(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
        )
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}")
    return json.loads(body)


def run_phase(conns: list[Connection], requests: list[bytes], due: list[float]) -> dict:
    """Drive one phase; returns per-request timings (absolute
    ``perf_counter`` seconds), statuses, bodies and the generator backlog
    (due-but-unsent count) seen at each send."""
    n = len(requests)
    start = time.perf_counter() + 0.01
    due_abs = [start + d for d in due]
    sent = [0.0] * n
    done = [0.0] * n
    status = [0] * n
    bodies: list[bytes] = [b""] * n
    backlog = [0] * n
    lock = threading.Lock()
    cursor = [0]

    def worker(conn: Connection) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= n:
                    return
                cursor[0] += 1
            delay = due_abs[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t = time.perf_counter()
            with lock:
                backlog[i] = max(0, bisect.bisect_right(due_abs, t) - cursor[0])
            sent[i] = t
            try:
                status[i], bodies[i] = conn.request(requests[i])
            except (OSError, ValueError):  # transport failure or a garbled response
                status[i] = 0
                conn.close()
            done[i] = time.perf_counter()

    # The generator's own garbage collection must not stall its schedule.
    collecting = gc.isenabled()
    gc.disable()
    threads = [threading.Thread(target=worker, args=(c,)) for c in conns[1:]]
    for th in threads:
        th.start()
    try:
        worker(conns[0])
    finally:
        for th in threads:
            th.join()
        if collecting:
            gc.enable()
    return {"due": due_abs, "sent": sent, "done": done, "status": status,
            "bodies": bodies, "backlog": backlog}
