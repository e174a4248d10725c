#!/usr/bin/env python3
"""Loopback benchmark of the bagcd daemon.

Builds a Release bagcd and perfbench_tool from this checkout, spawns the
daemon, drives it over loopback TCP with one seeded closed-loop workload,
checks every answer against the single-shot core/ oracle, and prints the
result as the last line of stdout:

  python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
a traced window, replays sampled ops down the in-process layer ladder and
reports the per-layer metrics. --steadiness N repeats every workload on N
seeds and prints each end-to-end metric's median and IQR/median beside
its bound. perfbench/README.md documents workloads, metrics and layers.

run.py is one process with one thread; it polls at most two client
connections.
"""
import argparse
import bisect
import gc
import json
import os
import random
import selectors
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
INPUTS_DIR = ROOT / ".bench_build" / "inputs"
RUN_DIR = ROOT / ".bench_build" / "run"
BAGCD = BUILD_DIR / "bagc" / "bagcd"
TOOL = BUILD_DIR / "perfbench_tool"

WORKLOADS = ("serve_mixed", "durable_commit", "tenant_analyze")
QUERY_THREADS = 2          # bagcd --threads: a query pool on a shared 4-CPU box
TENANT_MEM_BUDGET_MB = 1   # smaller than any two path tenants
SETUP_REPEATS = {"serve_mixed": 5, "durable_commit": 5, "tenant_analyze": 5}
DURABLE_SETUP_COMMITS = 2000
SERVE_TWOBAG, SERVE_KWISE, SERVE_PAIRWISE, SERVE_GLOBAL = 56, 4, 2, 2
READER_TWOBAG = 15
STREAM_TEMPLATES = 64      # distinct request batches a stream cycles over
LADDER_SAMPLE = {"serve_mixed": 16, "durable_commit": 8, "tenant_analyze": 8}
LADDER_ROUNDS = 5
LADDER_TOLERANCE_PCT = 20.0
STALL_SECONDS = 60.0
SLICE_SECONDS = 1.0        # timing metrics are medians over slices this long
SLICE_MIN_OPS = 10
TMPFS_MAGIC = 0x01021994

FRAME_CMD, FRAME_TWOBAG, FRAME_PAIRWISE, FRAME_GLOBAL, FRAME_KWISE = 1, 4, 5, 6, 7
FRAME_OK, FRAME_ERR, FRAME_VERDICT = 0x80, 0x81, 0x82
ERR_TAGS = {0: "E_PARSE", 1: "E_STATE", 2: "E_RANGE", 3: "E_ENGINE", 4: "E_INTERNAL"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A set-up or protocol failure: the run ends without a result."""


# ---- build, inputs, host -----------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no bagc source tree at {ROOT}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "bagcd",
                    "perfbench_tool", "-j", jobs], check=True, stdout=sys.stderr)


def inputs_for(workload, seed):
    """Generates (once per seed, outside any timing) and loads the inputs."""
    out = INPUTS_DIR / f"{workload}-{seed}"
    if not (out / "inputs.json").is_file():
        tmp = INPUTS_DIR / f".tmp-{workload}-{seed}-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        subprocess.run([str(TOOL), "gen", workload, str(seed), str(tmp)], check=True)
        if out.exists():
            subprocess.run(["rm", "-rf", str(out)], check=True)
        tmp.rename(out)
    with open(out / "inputs.json") as f:
        data = json.load(f)
    data["dir"] = out
    return data


def read_proc_stat_cpu():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]), steal


def host_info():
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    flags = {}
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER:", "CMAKE_CXX_FLAGS:", "CMAKE_CXX_FLAGS_RELEASE:",
                        "CMAKE_BUILD_TYPE:"):
                if line.startswith(key):
                    flags[key.rstrip(":")] = line.split("=", 1)[1]
    # A fixed pure-Python loop, best of 3: the host's speed drifted by
    # +-10% over minutes while tuning, with no steal; this makes it visible.
    calibration_ms = min(timeit.timeit(lambda: sum(i * i for i in range(200000)), number=1)
                         for _ in range(3)) * 1000.0
    return {"cpus": os.cpu_count(), "cpu_model": model, "build": flags,
            "loadavg": os.getloadavg(), "calibration_ms": round(calibration_ms, 3)}


def fs_magic(path):
    out = subprocess.run(["stat", "-f", "-c", "%t", str(path)], check=True,
                         capture_output=True, text=True).stdout
    return int(out.strip(), 16)


def ensure_tmpfs_run_dir(argv):
    """The WAL must sit on tmpfs so durable_commit never times a disk.
    When the checkout is not on tmpfs, re-run this script in a private
    user+mount namespace with a tmpfs mounted over the run directory
    (inside the checkout; it vanishes with the namespace)."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    if fs_magic(RUN_DIR) == TMPFS_MAGIC:
        return None
    if os.environ.get("PERFBENCH_PRIVATE_TMPFS") == "1":
        subprocess.run(["mount", "-t", "tmpfs", "-o", "size=1g,mode=0700", "perfbench",
                        str(RUN_DIR)], check=True)
        if fs_magic(RUN_DIR) != TMPFS_MAGIC:
            raise BenchError("refusing to run: the WAL directory is not on tmpfs")
        return None
    env = dict(os.environ, PERFBENCH_PRIVATE_TMPFS="1")
    cmd = ["unshare", "--user", "--map-root-user", "--mount", sys.executable,
           str(Path(__file__).resolve())] + argv
    try:
        return subprocess.run(cmd, env=env).returncode
    except OSError as e:
        raise BenchError(f"refusing to run: {RUN_DIR} is not tmpfs and no private "
                         f"tmpfs could be mounted ({e})")


# ---- daemon ------------------------------------------------------------------

class Daemon:
    """One bagcd process. Construction blocks on its `bagcd listening`
    stdout line; `ready_s` is the time from spawn to that line."""

    def __init__(self, args, log_name):
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        self.log = open(RUN_DIR / log_name, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(BAGCD), "--port", "0", "--threads", str(QUERY_THREADS)] + args,
            stdout=subprocess.PIPE, stderr=self.log, cwd=ROOT)
        self.port = None
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        pending = b""
        while self.port is None:
            if not sel.select(timeout=120):
                self.kill()
                raise BenchError("bagcd did not start listening within 120 s")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                self.kill()
                raise BenchError(f"bagcd exited before listening; see {RUN_DIR / log_name}")
            pending += chunk
            for line in pending.split(b"\n")[:-1]:
                if line.startswith(b"bagcd listening on "):
                    self.port = int(line.rsplit(b":", 1)[1])
            pending = pending.rsplit(b"\n", 1)[-1]
        self.ready_s = time.perf_counter() - t0
        sel.close()

    def cpu_ms(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1000.0 / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self):
        self.proc.stdout.close()
        self.log.close()


# ---- wire --------------------------------------------------------------------

def frame(opcode, payload=b""):
    return struct.pack("<IB", len(payload), opcode) + payload


def binary_request(line):
    t = line.split()
    if t[0] == "TWOBAG":
        return frame(FRAME_TWOBAG, struct.pack("<II", int(t[1]), int(t[2])))
    if t[0] == "PAIRWISE":
        return frame(FRAME_PAIRWISE)
    if t[0] == "GLOBAL":
        return frame(FRAME_GLOBAL)
    if t[0] == "KWISE":
        return frame(FRAME_KWISE, struct.pack("<I", int(t[1])))
    return frame(FRAME_CMD, line.encode())


def decode_frame(opcode, payload):
    """A response frame as the equivalent text line."""
    if opcode == FRAME_OK:
        return "OK " + payload.decode()
    if opcode == FRAME_ERR:
        return f"ERR {ERR_TAGS.get(payload[0], payload[0])} {payload[1:].decode()}"
    if opcode == FRAME_VERDICT:
        consistent, n = struct.unpack_from("<BI", payload)
        if consistent:
            return "OK CONSISTENT"
        idx = struct.unpack_from(f"<{n}I", payload, 5)
        return "OK INCONSISTENT" + "".join(f" {i}" for i in idx)
    return f"FRAME 0x{opcode:02x}"


class Op:
    """One client call: request bytes plus the shape of its responses
    ('l' one text line, 'm' a line that may open an END-terminated block,
    'f' one binary frame)."""
    __slots__ = ("id", "framing", "lines", "payload", "kinds", "t_send", "t_end",
                 "responses", "meta")

    def __init__(self, op_id, lines, framing="text", kinds=None, meta=None):
        self.id = op_id
        self.framing = framing
        self.lines = lines
        if framing == "binary":
            self.payload = (b"UPGRADE BINARY\n" + b"".join(binary_request(l) for l in lines)
                            + frame(FRAME_CMD, b"TEXT"))
            self.kinds = "l" + "f" * (len(lines) + 1)
        else:
            self.payload = ("\n".join(lines) + "\n").encode()
            self.kinds = kinds or "l" * sum(1 for l in lines if is_command(l))
        self.responses = []
        self.meta = meta
        self.t_send = self.t_end = 0.0

    def clone(self, op_id, meta=None):
        """A fresh call with this op's encoded request: streams cycle over
        templates built before the window, so the closed loop spends no
        client time encoding requests."""
        op = Op.__new__(Op)
        op.id, op.framing, op.lines, op.payload, op.kinds = (
            op_id, self.framing, self.lines, self.payload, self.kinds)
        op.responses, op.t_send, op.t_end = [], 0.0, 0.0
        op.meta = self.meta if meta is None else meta
        return op


def is_command(line):
    return not line[:1].isdigit() and line != "END"


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.pos = 0
        self.op = None
        greeting = self.call(Op(-1, [], kinds="l"), send=False)
        if greeting.responses[0] != "BAGCD 1 READY":
            raise BenchError(f"unexpected greeting {greeting.responses}")

    def start(self, op):
        self.op = op
        op.responses = []
        op.t_send = time.perf_counter()
        if op.payload:
            self.sock.sendall(op.payload)

    def on_readable(self):
        """Reads what arrived; True when the in-flight op is complete."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise BenchError("bagcd closed the connection")
        self.buf += data
        return self._parse()

    def _parse(self):
        op, buf = self.op, self.buf
        while len(op.responses) < len(op.kinds):
            kind = op.kinds[len(op.responses)]
            if kind == "f":
                if len(buf) - self.pos < 5:
                    return False
                n, opcode = struct.unpack_from("<IB", buf, self.pos)
                if len(buf) - self.pos - 5 < n:
                    return False
                op.responses.append(decode_frame(opcode, bytes(buf[self.pos + 5:self.pos + 5 + n])))
                self.pos += 5 + n
                continue
            nl = buf.find(b"\n", self.pos)
            if nl < 0:
                return False
            line = buf[self.pos:nl].decode()
            if kind == "m" and (line.startswith("OK WITNESS ") or line == "OK STATS"):
                end = buf.find(b"\nEND\n", nl - 1)
                if end < 0:
                    return False
                op.responses.append((line, bytes(buf[nl + 1:end + 1])))
                self.pos = end + 5
                continue
            op.responses.append(line)
            self.pos = nl + 1
        op.t_end = time.perf_counter()
        del buf[:self.pos]
        self.pos = 0
        self.op = None
        return True

    def call(self, op, send=True):
        """Blocking round trip outside the measured loop."""
        if send:
            self.start(op)
        else:
            self.op = op
            op.responses = []
        while not self._parse():
            data = self.sock.recv(1 << 20)
            if not data:
                raise BenchError("bagcd closed the connection")
            self.buf += data
        return op

    def script(self, text):
        lines = text.strip("\n").split("\n")
        op = self.call(Op(-1, lines, kinds="m" * sum(1 for l in lines if is_command(l))))
        for r in op.responses:
            if not (r if isinstance(r, str) else r[0]).startswith("OK"):
                raise BenchError(f"set-up command failed: {r}")
        return op.responses

    def stats(self, name=""):
        (line, body), = self.script("STATS " + name if name else "STATS")
        return {k: int(v) for k, v in (l.split() for l in body.decode().splitlines())}

    def close(self):
        self.sock.close()


def closed_loop(clients, seconds, spans=None, on_slice=None):
    """Runs every client closed-loop for `seconds`; returns the window
    start and the end of the last completed op. With `spans`, records one
    span per client call and a child span for its request write."""
    sel = selectors.DefaultSelector()
    for c in clients:
        sel.register(c.conn.sock, selectors.EVENT_READ, c)
    gc.disable()
    start = time.perf_counter()
    deadline = start + seconds
    last_end = start
    next_slice = start + SLICE_SECONDS
    if on_slice is not None:
        on_slice(start)
    def send(c):
        c.inflight = next(c.ops)
        c.conn.start(c.inflight)
        if spans is not None:
            op = c.inflight
            spans.append({"name": "write", "start": op.t_send, "end": time.perf_counter(),
                          "parent": f"{c.name}:{op.id}", "op": op.id})

    for c in clients:
        send(c)
    active = len(clients)
    try:
        while active:
            events = sel.select(timeout=STALL_SECONDS)
            if not events:
                raise BenchError(f"no response for {STALL_SECONDS:.0f} s")
            for key, _ in events:
                c = key.data
                if not c.conn.on_readable():
                    continue
                op = c.inflight
                c.done.append(op)
                last_end = max(last_end, op.t_end)
                if on_slice is not None and op.t_end >= next_slice and op.t_end < deadline:
                    on_slice(op.t_end)
                    next_slice = op.t_end + SLICE_SECONDS
                if spans is not None:
                    spans.append({"name": c.name, "id": f"{c.name}:{op.id}",
                                  "start": op.t_send, "end": op.t_end, "parent": None,
                                  "op": op.id, "framing": op.framing})
                if op.t_end < deadline:
                    send(c)
                else:
                    c.inflight = None
                    active -= 1
    finally:
        gc.enable()
        sel.close()
    return start, last_end


class LoopClient:
    def __init__(self, name, conn, ops):
        self.name, self.conn, self.ops = name, conn, ops
        self.done = []
        self.inflight = None


# ---- workloads ---------------------------------------------------------------

def rng_for(seed, salt):
    return random.Random(seed * 7919 + salt)


def quantile(sorted_values, q):
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latency_stats(ops):
    lat = sorted((op.t_end - op.t_send) * 1000.0 for op in ops)
    return quantile(lat, 0.5), quantile(lat, 0.9), len(lat)


class Workload:
    """Set-up, op stream and answer checks of one workload."""
    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.inputs = inputs_for(self.name, seed)
        self.daemon = None
        self.conns = []
        self.failures = []

    def seg(self, name="tenant.seg"):
        return str(self.inputs["dir"] / name)

    def connect(self):
        conn = Conn(self.daemon.port)
        self.conns.append(conn)
        return conn

    def teardown(self):
        for c in self.conns:
            c.close()
        self.conns = []
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def fail(self, what):
        if len(self.failures) < 20:
            self.failures.append(what)


class ServeMixed(Workload):
    """Warm reads on one preloaded 16-bag path; the op is a pipelined
    64-request batch, alternating text and binary framing."""
    name = "serve_mixed"

    def __init__(self, seed):
        super().__init__(seed)
        self.expect = {}
        for i, j, line in self.inputs["twobag"]:
            self.expect[(i, j)] = self.expect[(j, i)] = line
        self.pairs = sorted(self.expect)

    def setup(self):
        times = []
        for r in range(SETUP_REPEATS[self.name]):
            self.daemon = Daemon(["--preload-seg", self.seg()], "serve_mixed.log")
            times.append(self.daemon.ready_s)
            if r + 1 < SETUP_REPEATS[self.name]:
                self.daemon.stop()
        self.conn = self.connect()
        # Warm-up: one batch per framing fills the GLOBAL memo.
        warm = self.op_stream(rng_for(self.seed, 99))
        for _ in range(2):
            if not self.check(self.conn.call(next(warm))):
                raise BenchError("warm-up answers wrong: " + "; ".join(self.failures))
        return times

    def op_stream(self, rng):
        templates = []
        for k in range(STREAM_TEMPLATES):
            lines = [f"TWOBAG {i} {j}" for i, j in
                     (rng.choice(self.pairs) for _ in range(SERVE_TWOBAG))]
            lines += ["KWISE 3"] * SERVE_KWISE + ["PAIRWISE"] * SERVE_PAIRWISE
            lines += ["GLOBAL"] * SERVE_GLOBAL
            rng.shuffle(lines)
            templates.append(Op(k, lines, "binary" if k % 2 else "text"))
        k = 0
        while True:
            yield templates[k % len(templates)].clone(k)
            k += 1

    def expected(self, line):
        t = line.split()
        if t[0] == "TWOBAG":
            return self.expect[(int(t[1]), int(t[2]))]
        return self.inputs[{"KWISE": "kwise3", "PAIRWISE": "pairwise", "GLOBAL": "global"}[t[0]]]

    def check(self, op):
        responses = op.responses
        if op.framing == "binary":
            if responses[0] != "OK UPGRADE BINARY" or responses[-1] != "OK TEXT":
                self.fail(f"op {op.id}: framing switch answered {responses[0]!r}/{responses[-1]!r}")
                return False
            responses = responses[1:-1]
        ok = True
        for line, got in zip(op.lines, responses):
            if got != self.expected(line):
                self.fail(f"op {op.id}: {line} -> {got!r}, expected {self.expected(line)!r}")
                ok = False
        return ok

    def clients(self):
        if not hasattr(self, "loop"):
            self.loop = [LoopClient("op", self.conn, self.op_stream(rng_for(self.seed, 1)))]
        return self.loop

    def plan_ops(self, k):
        stream = self.op_stream(rng_for(self.seed, 1))
        return [next(stream) for _ in range(k)]


class DurableCommit(Workload):
    """Pipelined 4-bag BEGIN/INSERT|DELETE/COMMIT transactions on a 32-bag
    path with the WAL on tmpfs, beside a closed-loop reader."""
    name = "durable_commit"

    def __init__(self, seed):
        super().__init__(seed)
        self.windows = self.inputs["windows"]
        self.reader_pairs = [tuple(p) for p in self.inputs["reader_pairs"]]
        self.states = self.inputs["states"]
        self.wal_dir = RUN_DIR / "wal"
        self.sent = 0

    def args(self):
        return ["--preload-seg", self.seg(), "--wal-dir", str(self.wal_dir)]

    def commit_op(self, i):
        w = self.windows[(i // 2) % len(self.windows)]
        verb = "INSERT" if i % 2 == 0 else "DELETE"
        lines = ["BEGIN"]
        for bag in w:
            lines.append(f"{verb} {bag['name']} {' '.join(bag['attrs'])}")
            lines += [f"{a} {b} : 1" for a, b in bag["rows"]]
            lines.append("END")
        lines.append("COMMIT")
        return Op(i, lines, meta=verb)

    def state_after(self, n):
        """Index into `states` after the first n commits."""
        if n == 0 or n % 2 == 0:
            return 0
        return ((n - 1) // 2) % len(self.windows) + 1

    def full_read(self):
        lines = [f"TWOBAG {i} {j}" for i, j in self.reader_pairs] + ["PAIRWISE"]
        return Op(-1, lines)

    def check_commit(self, op):
        r = op.responses
        rows = sum(len(b["rows"]) for b in self.windows[0])
        good = (r[0] == "OK BEGIN" and all(x.startswith("OK ") for x in r[1:-1])
                and r[-1].startswith(f"OK COMMIT {rows} rows "))
        if not good:
            self.fail(f"commit {op.id}: {[x for x in r if not x.startswith('OK')] or r[-1]}")
        return good

    def setup(self):
        # Untimed pass: journal DURABLE_SETUP_COMMITS generations, record the
        # answers, then crash the daemon.
        if self.wal_dir.exists():
            subprocess.run(["rm", "-rf", str(self.wal_dir)], check=True)
        self.wal_dir.mkdir(parents=True)
        self.daemon = Daemon(self.args(), "durable_commit.log")
        writer = self.connect()
        writer.script(f"LOADSEG {self.seg()}\nSEAL")
        chunk = 100
        for base in range(0, DURABLE_SETUP_COMMITS, chunk):
            ops = [self.commit_op(i) for i in range(base, base + chunk)]
            batch = writer.call(Op(-1, sum((o.lines for o in ops), []), kinds="l" * 6 * chunk))
            for k, o in enumerate(ops):
                o.responses = batch.responses[6 * k:6 * k + 6]
                if not self.check_commit(o):
                    raise BenchError("set-up commit failed: " + "; ".join(self.failures))
        pre_kill = self.connect().call(self.full_read()).responses
        self.daemon.kill()
        self.teardown()
        # Timed set-up: restart, replaying every journaled generation.
        times = []
        for r in range(SETUP_REPEATS[self.name]):
            self.daemon = Daemon(self.args(), "durable_commit.log")
            times.append(self.daemon.ready_s)
            if r + 1 < SETUP_REPEATS[self.name]:
                self.daemon.kill()
        reader = self.connect()
        post = reader.call(self.full_read()).responses
        base = self.states[0]
        if post != pre_kill or post != base["twobag"] + [base["pairwise"]]:
            raise BenchError("answers after SIGKILL + WAL replay differ from the pre-kill daemon")
        replayed = reader.stats()["replayed_generations"]
        if replayed != DURABLE_SETUP_COMMITS:
            raise BenchError(f"replayed {replayed} generations, journaled {DURABLE_SETUP_COMMITS}")
        self.writer = self.connect()
        self.writer.script(f"LOADSEG {self.seg()}\nSEAL")  # seal lineage; resets the WAL
        self.reader = reader
        return times

    def commit_stream(self):
        templates = [self.commit_op(i) for i in range(2 * len(self.windows))]
        while True:
            op = templates[self.sent % len(templates)].clone(self.sent)
            self.sent += 1
            yield op

    def read_stream(self):
        rng = rng_for(self.seed, 2)
        templates = []
        for k in range(STREAM_TEMPLATES):
            lines = [f"TWOBAG {i} {j}" for i, j in rng.sample(self.reader_pairs, READER_TWOBAG)]
            templates.append(Op(k, lines + ["PAIRWISE"]))
        k = 0
        while True:
            # Commits acked before this read may already be visible; the
            # window of possible states closes when the read completes.
            yield templates[k % len(templates)].clone(k, meta=self.acked_now())
            k += 1

    def acked_now(self):
        return len(self.loop[0].done)

    def clients(self):
        if not hasattr(self, "loop"):
            self.loop = [LoopClient("op", self.writer, self.commit_stream()),
                         LoopClient("read", self.reader, self.read_stream())]
        return self.loop

    def check(self, op):
        if op.meta in ("INSERT", "DELETE"):
            return self.check_commit(op)
        # Possible states: from the commits acked at send up to every
        # commit sent before this read completed.
        acked_at_send = op.meta
        sent_by_end = bisect.bisect_left(self.commit_sends, op.t_end)
        states = {self.state_after(n) for n in range(acked_at_send, sent_by_end + 1)}
        index = self.pair_index
        ok = True
        for line, got in zip(op.lines, op.responses):
            t = line.split()
            if t[0] == "TWOBAG":
                k = index[(int(t[1]), int(t[2]))]
                allowed = {self.states[s]["twobag"][k] for s in states}
            else:
                allowed = {self.states[s]["pairwise"] for s in states}
            if got not in allowed:
                self.fail(f"read {op.id}: {line} -> {got!r}, expected one of {sorted(allowed)}")
                ok = False
        return ok

    def prepare_check(self):
        self.commit_sends = [c.t_send for c in self.loop[0].done]
        self.pair_index = {p: k for k, p in enumerate(self.reader_pairs)}

    def final_checks(self, commits):
        wal_records = self.reader.stats()["wal_records"]
        if wal_records != commits:
            self.fail(f"wal_records {wal_records} != acked commits {commits}")
            return False
        return True

    def plan_ops(self, k):
        return [self.commit_op(i) for i in range(k)]


class TenantAnalyze(Workload):
    """Cold analysis over 8 segment-backed tenants under a 1 MB budget:
    every op ATTACHes the next tenant round-robin and reloads it."""
    name = "tenant_analyze"

    def __init__(self, seed):
        super().__init__(seed)
        self.tenants = self.inputs["tenants"]
        self.verified = {}

    def setup_script(self):
        return "\n".join(f"ATTACH {t['name']}\nLOADSEG {self.seg(t['segment'])}\nSEAL\nDETACH\nRESET HARD"
                         for t in self.tenants)

    def setup(self):
        times = []
        for r in range(SETUP_REPEATS[self.name]):
            t0 = time.perf_counter()
            self.daemon = Daemon(["--mem-budget-mb", str(TENANT_MEM_BUDGET_MB)],
                                 "tenant_analyze.log")
            conn = self.connect()
            conn.script(self.setup_script())
            times.append(time.perf_counter() - t0)
            if r + 1 < SETUP_REPEATS[self.name]:
                self.teardown()
        self.conn = conn
        return times

    def op_lines(self, t):
        w = "WITNESS 0 1 MINIMAL" if t["witness"]["minimal"] else "WITNESS 0 1"
        return [f"ATTACH {t['name']}", "PAIRWISE", "GLOBAL", "KWISE 3", w]

    def op_stream(self):
        templates = [Op(k, self.op_lines(t), kinds="llllm", meta=t)
                     for k, t in enumerate(self.tenants)]
        k = 0
        while True:
            yield templates[k % len(templates)].clone(k)
            k += 1

    def clients(self):
        if not hasattr(self, "loop"):
            self.loop = [LoopClient("op", self.conn, self.op_stream())]
        return self.loop

    def check(self, op):
        t = op.meta
        want = [f"OK ATTACH {t['name']}", t["pairwise"], t["global"], t["kwise3"]]
        ok = True
        for line, got, exp in zip(op.lines, op.responses, want):
            if got != exp:
                self.fail(f"op {op.id} {t['name']}: {line} -> {got!r}, expected {exp!r}")
                ok = False
        witness = op.responses[4]
        key = (t["name"], witness if isinstance(witness, str) else witness[1])
        if key not in self.verified:
            self.verified[key] = self.check_witness(t, witness)
        if not self.verified[key]:
            self.fail(f"op {op.id} {t['name']}: bad witness {str(witness)[:80]}")
        return ok and self.verified[key]

    @staticmethod
    def check_witness(t, response):
        w = t["witness"]
        if isinstance(response, str):
            return response == "OK NONE" and not w["exists"]
        if not w["exists"]:
            return False
        lines = response[1].decode().splitlines()
        attrs = lines[0].split()[1:]
        rows = []
        for line in lines[1:]:
            if line == "end":
                break
            values, mult = line.split(":")
            rows.append((values.split(), int(mult)))
        if len(rows) != int(response[0].split()[2]):
            return False
        for key_attrs, key_rows in (("attrs0", "rows0"), ("attrs1", "rows1")):
            cols = [attrs.index(a) for a in w[key_attrs]]
            marginal = {}
            for values, mult in rows:
                k = tuple(int(values[c]) for c in cols)
                marginal[k] = marginal.get(k, 0) + mult
            if marginal != {tuple(r[:-1]): r[-1] for r in w[key_rows]}:
                return False
        return True

    def breakdown(self, ops):
        """Median op latency per tenant, for the human-readable summary."""
        by = {}
        for op in ops:
            by.setdefault(op.meta["name"], []).append((op.t_end - op.t_send) * 1000.0)
        for t in self.tenants:
            lat = by.get(t["name"], [])
            if lat:
                yield (f"  {t['name']} {t['kind']:<13} rows {t['support_rows']:>7}  "
                       f"p50 {statistics.median(lat):9.3f} ms  (n={len(lat)})")

    def counters(self):
        total = {"hits": 0, "reloads": 0}
        for t in self.tenants:
            s = self.conn.stats(t["name"])
            for k in total:
                total[k] += s[k]
        total["evictions"] = self.conn.stats()["evictions"]
        return total

    def final_checks(self, ops, reloads):
        if reloads != ops:
            self.fail(f"STATS reloads {reloads} != ops {ops}: the cold path did not run")
            return False
        return True

    def plan_ops(self, k):
        stream = self.op_stream()
        return [next(stream) for _ in range(k)]


WORKLOAD_CLASSES = {c.name: c for c in (ServeMixed, DurableCommit, TenantAnalyze)}


# ---- measurement -------------------------------------------------------------

def registry_counters(w):
    if isinstance(w, TenantAnalyze):
        return w.counters()
    conn = w.conns[-1]
    s, g = conn.stats("default"), conn.stats()
    return {"hits": s["hits"], "reloads": s["reloads"], "evictions": g["evictions"]}


def measure_window(w, seconds, spans=None):
    """One closed-loop window; returns its metrics and raw op lists.

    Timing metrics are computed per ~1 s slice and reported as the median
    over the quieter half of the slices, ranked by the host's steal-time
    share in each slice. On a shared VM, bursts of steal lasting seconds
    cut serve_mixed throughput by up to 3x; ranking by steal keeps those
    bursts out of the figures without an absolute threshold."""
    clients = w.clients()
    marks = [len(c.done) for c in clients]
    counters0 = registry_counters(w)
    slices = []  # (time, [ops done per client], daemon cpu ms, /proc/stat cpu)
    on_slice = lambda t: slices.append((t, [len(c.done) for c in clients], w.daemon.cpu_ms(),
                                        read_proc_stat_cpu()))
    start, end = closed_loop(clients, seconds, spans, on_slice)
    on_slice(end)
    counters1 = registry_counters(w)
    done = [c.done[k:] for c, k in zip(clients, marks)]
    reads_client = 1 if len(clients) > 1 else 0
    rows = []  # (steal share, metrics of one slice)
    for (t0, n0, c0, s0), (t1, n1, c1, s1) in zip(slices, slices[1:]):
        ops = clients[0].done[n0[0]:n1[0]]
        reads = clients[reads_client].done[n0[reads_client]:n1[reads_client]]
        # The window's last slice can be short; it is dropped with any
        # slice too thin for percentiles.
        if t1 - t0 < SLICE_SECONDS / 2 or min(len(ops), len(reads)) < SLICE_MIN_OPS:
            continue
        p50, p90, _ = latency_stats(ops)
        r50, r90, _ = latency_stats(reads)
        steal = (s1[1] - s0[1]) / max(1, s1[0] - s0[0])
        rows.append((steal, {"ops_per_s": len(ops) / (t1 - t0), "op_p50_ms": p50,
                             "op_p90_ms": p90, "read_p50_ms": r50, "read_p90_ms": r90,
                             "server_cpu_ms_per_op": (c1 - c0) / len(ops)}))
    if not rows:
        raise BenchError("no slice of the window completed enough ops")
    # Ties (often many slices at zero steal) alternate through the window
    # instead of favouring its start.
    order = sorted(range(len(rows)), key=lambda i: (rows[i][0], i % 2, i))
    ranked = [rows[i] for i in order[:(len(rows) + 1) // 2]]
    quiet = [m for _, m in ranked]
    counts = {name: len(done[reads_client if name.startswith("read") else 0])
              for name in quiet[0]}
    metrics = {name: (counts[name], statistics.median(m[name] for m in quiet))
               for name in quiet[0]}
    steal = (slices[-1][3][1] - slices[0][3][1]) / max(1, slices[-1][3][0] - slices[0][3][0])
    deltas = {k: counters1[k] - counters0[k] for k in counters0}
    return {"metrics": metrics, "primary": done[0], "ops": [op for d in done for op in d],
            "steal": steal, "counters": deltas, "slices": (len(quiet), len(rows)),
            "quiet_steal": ranked[-1][0]}


def check_ops(w, ops):
    if hasattr(w, "prepare_check"):
        w.prepare_check()
    failed = sum(0 if w.check(op) else 1 for op in ops)
    return failed


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "read_p50_ms": "ms", "read_p90_ms": "ms", "server_cpu_ms_per_op": "ms",
         "rss_peak_mb": "MB"}


def end_to_end(setup_times, window, rss):
    m = {"setup_s": (len(setup_times), statistics.median(setup_times))}
    m.update(window["metrics"])
    m["rss_peak_mb"] = (1, rss)
    return m


def layer_unit(name):
    if "_us" in name:
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "B/B" if name == "wal.bytes_per_user_byte" else "count"


def summary_lines(title, metrics, window):
    used, total = window["slices"]
    yield (f"{title} (timings: median over the {used} quietest of {total} slices of "
           f"{SLICE_SECONDS:g} s; their steal share <= {window['quiet_steal']:.4f})")
    for name, (n, value) in metrics.items():
        yield f"  {name:<22} {value:12.4f} {UNITS.get(name, '')}  (n={n})"


# ---- layer ladder ------------------------------------------------------------

def write_plan(path, ops):
    with open(path, "w") as f:
        for op in ops:
            f.write(f"op {op.id} {op.framing}\n")
            for line in op.lines:
                f.write(line + "\n")
            f.write("endop\n")


def run_ladder(workload, seed, ops):
    inputs = inputs_for(workload, seed)
    scratch = RUN_DIR / f"ladder-{workload}"
    subprocess.run(["rm", "-rf", str(scratch)], check=True)
    scratch.mkdir(parents=True)
    plan = scratch / "plan.txt"
    write_plan(plan, ops)
    out = subprocess.run([str(TOOL), "ladder", workload, str(inputs["dir"]), str(plan),
                          str(scratch), str(LADDER_ROUNDS)], check=True,
                         stdout=subprocess.PIPE, text=True, cwd=ROOT)
    subprocess.run(["rm", "-rf", str(scratch)], check=True)
    return json.loads(out.stdout)


def per_layer(name, seed, traced_window, untraced_window):
    """Per-layer metrics: rung self-times from the traced workload's own
    sampled ops; named layer entry points from each layer's home workload."""
    k = LADDER_SAMPLE[name]
    primary = traced_window["primary"]
    first = next(i for i, op in enumerate(primary) if op.id % k == 0)
    sample = primary[first:first + k]
    if len(sample) < k:
        raise BenchError("traced window too short for the ladder sample")
    ladders = {name: run_ladder(name, seed, sample)}
    for other in WORKLOADS:
        if other != name:
            cls = WORKLOAD_CLASSES[other]
            ladders[other] = run_ladder(other, seed, cls(seed).plan_ops(LADDER_SAMPLE[other]))
    wire = {op.id: (op.t_end - op.t_send) * 1e6 for op in sample}
    rows = ladders[name]["ops"]
    med = statistics.median

    def pool(r):
        return r["pool_binary_us"] if r["framing"] == "binary" else r["pool_text_us"]

    def inline(r):
        return r["inline_binary_us"] if r["framing"] == "binary" else r["inline_text_us"]

    m = {
        "transport.self_us": med(wire[r["id"]] - pool(r) for r in rows),
        "pool.hop_us": med(pool(r) - inline(r) for r in rows),
        "session.text.dispatch_us": med(r["inline_text_us"] - r["snapshot_us"] for r in rows),
        "session.binary.dispatch_us": med(r["inline_binary_us"] - r["snapshot_us"] for r in rows),
        "session.commit_us": med(r["inline_text_us"] - r["snapshot_us"]
                                 for r in ladders["durable_commit"]["ops"]),
    }
    ops = max(1, len(traced_window["primary"]))
    for key in ("hits", "reloads", "evictions"):
        m[f"registry.{key}_per_op"] = traced_window["counters"][key] / ops
    home = {
        "registry.acquire_hit_us": "serve_mixed", "engine.twobag_sealed_us": "serve_mixed",
        "engine.kwise3_sealed_us": "serve_mixed",
        "registry.publish_delta_us": "durable_commit",
        "snapshot.build_delta_batch_us": "durable_commit",
        "engine.make_delta_batch_us": "durable_commit",
        "engine.marginal_fills_per_commit": "durable_commit",
        "engine.dirty_pairs_per_commit": "durable_commit",
        "wal.encode_us": "durable_commit", "wal.append_us": "durable_commit",
        "wal.records_per_commit": "durable_commit", "wal.bytes_per_user_byte": "durable_commit",
        "wal.replay_us_per_gen": "durable_commit",
        "registry.acquire_reload_us": "tenant_analyze", "snapshot.build_us": "tenant_analyze",
        "engine.make_us": "tenant_analyze", "engine.global_acyclic_us": "tenant_analyze",
        "engine.global_exact_us": "tenant_analyze", "engine.witness_us": "tenant_analyze",
        "solver.lp_build_us": "tenant_analyze", "solver.integer_search_us": "tenant_analyze",
        "solver.search_nodes": "tenant_analyze", "flow.witness_us": "tenant_analyze",
        "flow.minimal_witness_us": "tenant_analyze", "segment.map_us": "tenant_analyze",
    }
    for metric, wl in home.items():
        m[metric] = ladders[wl]["functions"][metric]

    # Ladder sum check: per sampled op, the rung self-times add up to its
    # wire time; compare their median with the untraced op_p50_ms.
    parts = []
    for r in rows:
        p = {"transport": wire[r["id"]] - pool(r), "pool": pool(r) - inline(r),
             "session": inline(r) - r["snapshot_us"],
             "registry+snapshot": r["snapshot_us"] - r["engine_us"],
             "engine": r["engine_us"] - r["leaf_us"], "leaf": r["leaf_us"]}
        parts.append(p)
    sums = [sum(p.values()) / 1000.0 for p in parts]
    untraced_p50 = untraced_window["metrics"]["op_p50_ms"][1]
    residual_ms = med(sums) - untraced_p50
    m["ladder.residual_pct"] = 100.0 * residual_ms / untraced_p50
    traced_p50 = traced_window["metrics"]["op_p50_ms"][1]
    m["trace.overhead_p50_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50

    report = [f"layer ladder ({name}, {len(rows)} sampled ops, {LADDER_ROUNDS} rounds; "
              "median self time per op, us):"]
    for part in parts[0]:
        report.append(f"  {part:<18} {med(p[part] for p in parts):12.1f}")
    flag = "ok" if abs(m["ladder.residual_pct"]) <= LADDER_TOLERANCE_PCT else "OUT OF TOLERANCE"
    report.append(f"  sum of parts       {med(sums) * 1000:12.1f}  vs untraced op_p50 "
                  f"{untraced_p50 * 1000:.1f}: residual {residual_ms * 1000:+.1f} us "
                  f"({m['ladder.residual_pct']:+.1f}%, tolerance "
                  f"±{LADDER_TOLERANCE_PCT:.0f}%) {flag}")
    overhead = ["tracing overhead (traced - untraced):"]
    for metric, (n, value) in traced_window["metrics"].items():
        base = untraced_window["metrics"][metric][1]
        overhead.append(f"  {metric:<22} {value - base:+10.4f} ({100 * (value - base) / base:+.1f}%)")
    return m, report + overhead


# ---- one run -----------------------------------------------------------------

def run(args):
    w = WORKLOAD_CLASSES[args.workload](args.seed)
    info = host_info()
    try:
        setup_times = w.setup()
        if args.trace:
            untraced = measure_window(w, args.seconds / 2.0)
            spans = []
            traced = measure_window(w, args.seconds / 2.0, spans)
            windows = [untraced, traced]
        else:
            windows = [measure_window(w, args.seconds)]
        rss = w.daemon.peak_rss_mb()
        all_ops = [op for win in windows for op in win["ops"]]
        failed = check_ops(w, all_ops)
        good = True
        primary = sum(len(win["primary"]) for win in windows)
        if isinstance(w, DurableCommit):
            good = w.final_checks(primary)
        if isinstance(w, TenantAnalyze):
            good = w.final_checks(primary, sum(win["counters"]["reloads"] for win in windows))
    finally:
        w.teardown()
    lines = [f"host: {json.dumps(info)}",
             f"steal share during run: {max(win['steal'] for win in windows):.4f}"]
    if args.trace:
        metrics, report = per_layer(args.workload, args.seed, windows[1], windows[0])
        lines += list(summary_lines("untraced window:", end_to_end(setup_times, windows[0], rss),
                                    windows[0]))
        lines += list(summary_lines("traced window:", end_to_end(setup_times, windows[1], rss),
                                    windows[1]))
        lines += report
        trace_path = RUN_DIR.parent / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as f:
            json.dump(spans, f)
        lines.append(f"spans: {len(spans)} written to {trace_path.relative_to(ROOT)}")
        result_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        e2e = end_to_end(setup_times, windows[0], rss)
        lines += list(summary_lines(f"{args.workload} seed {args.seed}", e2e, windows[0]))
        lines.append("  set-up samples (s): " + " ".join(f"{t:.4f}" for t in setup_times))
        if isinstance(w, TenantAnalyze):
            lines += list(w.breakdown(windows[0]["primary"]))
        result_metrics = {k: {"value": v, "unit": UNITS[k]} for k, (n, v) in e2e.items()}
    for f in w.failures:
        lines.append(f"FAILED: {f}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0 and good, "attempted": len(all_ops),
                      "failed": failed, "metrics": result_metrics}), flush=True)


def steadiness(args):
    """Repeats each workload on consecutive seeds and reports each
    end-to-end metric's median and IQR/median beside its bound."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    wide = 0
    for name in names:
        values = {}
        for k in range(args.steadiness):
            out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                  "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                                  "--trace", "0"], capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr[-2000:], file=sys.stderr)
                raise BenchError(f"{name} seed {args.seed + k} failed")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise BenchError(f"{name} seed {args.seed + k}: wrong answers")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            steal = next((l for l in out.stdout.splitlines() if l.startswith("steal")), "")
            print(f"  seed {args.seed + k}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()) + f"  [{steal}]",
                flush=True)
        print(f"{name}: {args.steadiness} runs, seeds {args.seed}..{args.seed + args.steadiness - 1}")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(metric, float("nan"))
            flag = "WIDER THAN BOUND" if spread > bound else ("> bound/3" if spread > bound / 3 else "ok")
            wide += spread > bound
            print(f"  {metric:<22} median {med:12.4f}  IQR/median {spread:7.4f}  bound {bound:.2f}  {flag}")
    return 1 if wide else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="serve_mixed",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="repeat each workload on this many seeds and report spreads")
    args = parser.parse_args()
    try:
        if os.environ.get("PERFBENCH_PRIVATE_TMPFS") != "1":
            build()
        if args.steadiness:
            return steadiness(args)
        if args.workload == "all":
            raise BenchError("--workload all needs --steadiness")
        if args.workload == "durable_commit" or args.trace:
            code = ensure_tmpfs_run_dir(sys.argv[1:])
            if code is not None:
                return code
        run(args)
        return 0
    except (BenchError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
