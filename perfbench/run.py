#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of spmv-locality.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

  batch-sweep     back-to-back `batch --workers 2` runs of the paper sweep
                  over a seeded corpus, alternating threads 1 and 48
  serve-warm      `serve --executors 2` with a warm profile cache, driven
                  by 2 closed-loop connections
  simulate-sweep  back-to-back `simulate` runs over seeded .mtx files of
                  the four working-set classes, threads 1/48, sector
                  cache off/on

The script builds `spmv-locality` and the per-layer tool from source
into $CARGO_TARGET_DIR (default `.bench_build`), works in `.bench_work`,
and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end ones, measured with tracing off; with
`--trace 1` they are the per-layer ones, from timing calls into each
crate on the workload's own inputs, plus the residual and the tracing
overhead.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
TARGET = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BIN = TARGET / "release" / "spmv-locality"
LAYERS = TARGET / "release" / "perfbench-layers"

# batch-sweep: 28 corpus matrices run twice through the corpus's mix of
# all seven structural families; at machine scale 64 one invocation takes
# 1-2 s on a 2-core Xeon. The corpus seed is one whose largest matrix
# holds 38 L2 segments of data.
BATCH_SCALE = 64
BATCH_COUNT = 28
BATCH_LARGEST_SEGMENTS = 38
BATCH_THREADS = (1, 48)
PAPER_SETTINGS = 7  # off, 2..7 ways
METHODS = 2
# serve-warm: a pool of single corpus matrices of 7 L2 segments each; each
# request names one or two of them.
SERVE_SCALE = 64
SERVE_POOL = 4
SERVE_SEGMENTS = 7
SERVE_THREADS = 1
SERVE_CONNECTIONS = 2
SERVE_SETUPS = 7
# simulate-sweep: one matrix per working-set class at machine scale 16.
SIM_SCALE = 16
SIM_THREADS = (1, 48)
SIM_WAYS = 5
SETUP_REPS = 15

def log(*args):
    print("#", *args, file=sys.stderr, flush=True)


def run(args, timeout=170):
    """Runs a command to completion: (returncode, stdout, stderr, wall_s,
    peak_rss_mb)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [str(a) for a in args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = communicate(proc, timeout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    return code, out.decode(), err.decode(), wall, usage.ru_maxrss / 1024.0


def communicate(proc, timeout):
    """Reads both pipes to EOF without reaping the process (wait4 does)."""
    chunks = {proc.stdout: [], proc.stderr: []}

    def drain(pipe):
        for chunk in iter(lambda: pipe.read(65536), b""):
            chunks[pipe].append(chunk)

    readers = [threading.Thread(target=drain, args=(p,)) for p in chunks]
    for t in readers:
        t.start()
    for t in readers:
        t.join(timeout)
        if t.is_alive():
            proc.kill()
            t.join()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    for args in (
        ["cargo", "build", "--release", "--offline", "--bin", "spmv-locality"],
        [
            "cargo", "build", "--release", "--offline",
            "--manifest-path", "perfbench/layers/Cargo.toml",
        ],
    ):
        r = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(args)}")


def host_record():
    def cmd(args):
        try:
            r = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_rev": cmd(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": cmd(["rustc", "--version"]) or "unknown",
    }


class Tally:
    """Operations attempted and failed, with the first few problems. An
    operation whose output fails a check counts as failed, so the outputs
    of the operations that did not fail were all checked and correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def metric_block(values, units):
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


# --------------------------------------------------------------------
# batch-sweep


def batch_spec(seed, threads, count=BATCH_COUNT, scale=BATCH_SCALE):
    return (
        f"corpus count={count} scale={scale} seed={seed}\n"
        "methods A,B\nsettings paper\necm on\n"
        f"threads {threads}\nscale {scale}\n"
    )


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def corpus_seeds(seed, scale, matrices, segments, count):
    """Corpus seeds derived from `seed` whose largest matrix has a fixed
    size, so every seed gives a run the same work (see `layers seeds`)."""
    code, out, err, _, _ = run(
        [
            LAYERS, "seeds", "--seed", seed, "--scale", scale, "--corpus", matrices,
            "--segments", segments, "--count", count,
        ]
    )
    if code != 0:
        raise RuntimeError(f"seed selection failed: {err.strip()[-200:]}")
    return [int(s) for s in out.split()]


def batch_inputs(seed):
    corpus_seed = corpus_seeds(seed, BATCH_SCALE, BATCH_COUNT, BATCH_LARGEST_SEGMENTS, 1)[0]
    specs = [
        write(WORK / f"batch-t{t}.spec", batch_spec(corpus_seed, t)) for t in BATCH_THREADS
    ]
    # The smallest batch of the sweep's kind: one fixed-size matrix.
    smallest = write(WORK / "batch-setup.spec", serve_spec(pool_seeds(seed)[:1]))
    return specs, smallest


def batch_op(spec, tally, extra=()):
    code, out, err, wall, rss = run([BIN, "batch", spec, "--workers", "2", *extra])
    problems = [f"batch exited {code}: {err.strip()[-200:]}"] if code != 0 else []
    if code == 0:
        problems += checks.check_batch_output(
            out, BATCH_SCALE, BATCH_COUNT * METHODS * PAPER_SETTINGS
        )[1]
    tally.op(problems)
    return out, wall, rss


def setup_probe(args, reps=SETUP_REPS):
    """Median wall time of the command's smallest invocation: the set-up
    every one-shot invocation pays (process start, input resolution, a
    single matrix's work)."""
    walls = []
    for _ in range(reps):
        code, _, err, wall, _ = run(args)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-200:]}")
        walls.append(wall)
    return checks.median(walls)


def sweep(name, configs, run_op, seconds, setup_s):
    """Runs whole sweeps over `configs` back to back until `seconds` have
    passed. An operation of a one-shot workload is one sweep: its latency
    is the sum over configurations of the median invocation wall time,
    its peak RSS the largest per-configuration median."""
    walls = {c: [] for c in configs}
    rss = {c: [] for c in configs}
    start = time.perf_counter()
    while True:
        for c in configs:
            wall, peak = run_op(c)
            walls[c].append(wall)
            rss[c].append(peak)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    invocations = sum(len(w) for w in walls.values())
    log(f"{name}: {invocations} invocations in {elapsed:.1f} s")
    latency = sum(checks.median(w) for w in walls.values())
    return {
        "setup_s": setup_s,
        "latency_ms": latency * 1e3,
        "tail_ms": latency * 1e3,
        "ops_per_s": invocations / elapsed,
        "peak_rss_mb": max(checks.median(r) for r in rss.values()),
    }


def batch_sweep(seed, seconds, trace, tally):
    specs, smallest = batch_inputs(seed)
    if trace:
        return batch_trace(specs, tally)
    setup_s = setup_probe([BIN, "batch", smallest, "--workers", "2"])
    first = {}

    def op(spec):
        out, wall, peak = batch_op(spec, tally)
        first.setdefault(spec, out)
        return wall, peak

    values = sweep("batch-sweep", specs, op, seconds, setup_s)
    # Worker-count invariance, outside the timed window: a --workers 1
    # rerun of the threads-1 spec must print the same report lines.
    code, out1, _, _, _ = run([BIN, "batch", specs[0], "--workers", "1"])
    same = checks.report_payloads(out1) == checks.report_payloads(first[specs[0]])
    tally.op([] if code == 0 and same else [f"--workers 1 rerun differs (exit {code})"])
    return values


def batch_trace(specs, tally):
    layers = run_layers(["--workload", "batch", *sum((["--spec", s] for s in specs), [])])
    # Residual: a serial round (--workers 1) against the serial layer sum.
    serial = 0.0
    for spec in specs:
        _, wall, _ = batch_op(spec, tally, extra=["--workers", "1"])
        serial += wall
    # Tracing overhead: rounds with and without --metrics, interleaved.
    untraced, traced = [], []
    for i in range(2):
        for spec in specs:
            _, wall, _ = batch_op(spec, tally)
            untraced.append(wall)
            _, wall, _ = batch_op(
                spec, tally, extra=["--metrics", WORK / f"metrics-{i}.json"]
            )
            traced.append(wall)
    return finish_layers(layers, serial, sum(untraced) / 2, sum(traced) / 2)


# --------------------------------------------------------------------
# serve-warm


def pool_seeds(seed):
    return corpus_seeds(seed, SERVE_SCALE, 1, SERVE_SEGMENTS, SERVE_POOL)


def serve_spec(seeds):
    lines = [f"corpus count=1 scale={SERVE_SCALE} seed={s}" for s in seeds]
    lines += [
        "methods A,B",
        "settings paper",
        "ecm on",
        f"threads {SERVE_THREADS}",
        f"scale {SERVE_SCALE}",
    ]
    return "\n".join(lines) + "\n"


def request_mix(pool):
    """Every pool matrix alone, and every pair of neighbours."""
    mix = [[s] for s in pool]
    mix += [[pool[i], pool[(i + 1) % len(pool)]] for i in range(len(pool))]
    return [serve_spec(m) for m in mix], [len(m) for m in mix]


class Daemon:
    """`spmv-locality serve` on an ephemeral localhost port."""

    def __init__(self, extra=()):
        self.log_path = WORK / f"serve-{os.getpid()}-{time.monotonic_ns()}.log"
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [str(BIN), "serve", "--tcp", "127.0.0.1:0", "--executors", "2", *map(str, extra)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        try:
            self.addr = self._wait_listening()
        except RuntimeError:
            self.stop()
            raise

    def _wait_listening(self, timeout=30):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "listening on tcp" in line:
                    host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("serve did not start listening")

    def connect(self):
        sock = socket.create_connection(self.addr)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def stop(self):
        """Shuts the daemon down and returns its peak RSS in MB."""
        usage = None
        try:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.perf_counter() + 30
            while usage is None:
                pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    usage = ru
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                elif time.perf_counter() > deadline:
                    self.proc.kill()
                    deadline = float("inf")
                else:
                    time.sleep(0.01)
        except ChildProcessError:
            pass  # already reaped after a failed start
        self.log.close()
        self.log_path.unlink(missing_ok=True)
        return usage.ru_maxrss / 1024.0 if usage else None


class Conn:
    def __init__(self, daemon):
        self.sock = daemon.connect()
        self.reader = self.sock.makefile("rb")

    def request(self, req_id, spec):
        """Sends one predict request; returns its response lines."""
        line = json.dumps({"id": req_id, "spec": spec}, separators=(",", ":"))
        self.sock.sendall(line.encode() + b"\n")
        lines = []
        while True:
            raw = self.reader.readline()
            if not raw:
                lines.append("<connection closed>")
                return lines
            text = raw.decode().rstrip("\n")
            lines.append(text)
            if '"done":' in text or '"error":' in text:
                return lines

    def close(self):
        self.reader.close()
        self.sock.close()


def serve_setup(pool):
    """Launches a daemon and fills its cache: returns (daemon, seconds)."""
    start = time.perf_counter()
    daemon = Daemon()
    try:
        warm_up(daemon, pool)
    except (OSError, RuntimeError):
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


def warm_up(daemon, pool):
    """The cache-filling pass: one request naming the whole pool."""
    conn = Conn(daemon)
    lines = conn.request("warm", serve_spec(pool))
    conn.close()
    if '"done":' not in lines[-1]:
        raise RuntimeError(f"cache-filling pass failed: {lines[-1:]}")


def batch_oracle(specs):
    """What a separate batch process prints for each spec."""
    oracle = []
    for i, spec in enumerate(specs):
        path = write(WORK / f"serve-oracle-{i}.spec", spec)
        code, out, err, _, _ = run([BIN, "batch", path, "--workers", "2"])
        if code != 0:
            raise RuntimeError(f"batch oracle failed: {err.strip()[-200:]}")
        oracle.append(checks.report_payloads(out))
    return oracle


def drive(daemon, specs, sizes, oracle, seconds, connections, tally):
    """Closed loop: each connection cycles through the request mix and
    stops after the cycle during which the time ran out."""
    latencies, lock = [], threading.Lock()
    start = time.perf_counter()

    def client(c):
        conn = Conn(daemon)
        n = 0
        mine = []
        while True:
            for k in range(len(specs)):
                i = (k + c) % len(specs)
                req_id = f"c{c}-{n}"
                t = time.perf_counter()
                lines = conn.request(req_id, specs[i])
                mine.append(
                    (
                        time.perf_counter() - t,
                        checks.check_response(
                            req_id, lines, oracle[i], sizes[i],
                            sizes[i] * METHODS * PAPER_SETTINGS,
                        ),
                    )
                )
                n += 1
            if time.perf_counter() - start >= seconds:
                break
        conn.close()
        with lock:
            latencies.extend(mine)

    clients = [threading.Thread(target=client, args=(c,)) for c in range(connections)]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    elapsed = time.perf_counter() - start
    for _, problems in latencies:
        tally.op(problems)
    return [lat for lat, _ in latencies], elapsed


def serve_warm(seed, seconds, trace, tally):
    pool = pool_seeds(seed)
    specs, sizes = request_mix(pool)
    oracle = batch_oracle(specs)
    if trace:
        return serve_trace(pool, specs, sizes, oracle, tally)
    setups = []
    daemon = None
    try:
        for i in range(SERVE_SETUPS):
            daemon, elapsed = serve_setup(pool)
            setups.append(elapsed)
            if i + 1 < SERVE_SETUPS:
                daemon.stop()
                daemon = None
        lat, elapsed = drive(daemon, specs, sizes, oracle, seconds, SERVE_CONNECTIONS, tally)
    finally:
        rss = daemon.stop() if daemon else None
    log(f"serve-warm: {len(lat)} requests in {elapsed:.1f} s")
    return {
        "setup_s": checks.median(setups),
        "latency_ms": checks.median(lat) * 1e3,
        "tail_ms": checks.tail(lat) * 1e3,
        "ops_per_s": len(lat) / elapsed,
        "peak_rss_mb": rss,
    }


def serve_trace(pool, specs, sizes, oracle, tally):
    path = write(
        WORK / "serve-requests.jsonl",
        "".join(
            json.dumps({"id": f"r{i}", "spec": s}, separators=(",", ":")) + "\n"
            for i, s in enumerate(specs)
        ),
    )
    layers = run_layers(["--workload", "serve", "--requests", path])
    walls = {}
    for label, extra in (("untraced", ()), ("traced", ("--metrics", WORK / "serve-metrics.json"))):
        daemon = Daemon(extra)
        try:
            warm_up(daemon, pool)
            # One connection, two passes over the mix: request latency
            # without queueing behind another client.
            lat = []
            for _ in range(2):
                lat += drive(daemon, specs, sizes, oracle, 0, 1, tally)[0]
        finally:
            daemon.stop()
        walls[label] = checks.median(lat)
    return finish_layers(layers, walls["untraced"], walls["untraced"], walls["traced"])


# --------------------------------------------------------------------
# simulate-sweep


def sim_inputs(seed):
    out_dir = WORK / "sim"
    shutil.rmtree(out_dir, ignore_errors=True)
    code, out, err, _, _ = run(
        [LAYERS, "gen-mtx", "--seed", seed, "--scale", SIM_SCALE, "--out", out_dir]
    )
    if code != 0:
        raise RuntimeError(f"gen-mtx failed: {err.strip()[-200:]}")
    files = [Path(p) for p in out.split()]
    shapes = {}
    for f in files:
        with open(f) as fh:
            fh.readline()
            rows, cols, nnz = map(int, fh.readline().split())
        shapes[f] = (rows, cols, nnz)
    return files, shapes


def sim_predictions(files):
    """Method A's predictions for every file, thread count and setting,
    from `batch` runs over the same files."""
    specs, pred = [], {}
    for t in SIM_THREADS:
        text = "".join(f"mtx {f}\n" for f in files)
        text += f"methods A,B\nsettings off,{SIM_WAYS}\nthreads {t}\nscale {SIM_SCALE}\n"
        spec = write(WORK / f"sim-check-t{t}.spec", text)
        specs.append(spec)
        code, out, err, _, _ = run([BIN, "batch", spec, "--workers", "2"])
        if code != 0:
            raise RuntimeError(f"prediction batch failed: {err.strip()[-200:]}")
        reports, problems = checks.check_batch_output(out, SIM_SCALE, len(files) * METHODS * 2)
        if problems:
            raise RuntimeError(f"prediction batch failed its checks: {problems[:3]}")
        names = {f.stem: f for f in files}
        for r in (r for r in reports if r["method"] == "A"):
            ways = 0 if r["setting"] == "off" else r["setting"]
            pred[(names[r["matrix"]], t, ways)] = r["l2_misses"]
    return specs, pred


def sim_sweep_ops(files):
    return [(f, t, w) for f in files for t in SIM_THREADS for w in (0, SIM_WAYS)]


def sim_op(op, shapes, pred, tally, extra=()):
    f, t, w = op
    code, out, err, wall, rss = run(
        [BIN, "simulate", f, "--threads", t, "--scale", SIM_SCALE, "--l2-ways", w, *extra]
    )
    if code != 0:
        tally.op([f"simulate exited {code}: {err.strip()[-200:]}"])
        return wall, rss
    rows, cols, nnz = shapes[f]
    cls = checks.classify(rows, cols, nnz, SIM_SCALE, 1)
    tally.op(
        checks.check_simulation(
            checks.parse_simulate(out), pred[op], cls, t, checks.ws_lines(rows, cols, nnz)
        )
    )
    return wall, rss


def simulate_sweep(seed, seconds, trace, tally):
    files, shapes = sim_inputs(seed)
    specs, pred = sim_predictions(files)
    ops = sim_sweep_ops(files)
    if trace:
        return sim_trace(seed, specs, ops, shapes, pred, tally)
    smallest = min(files, key=lambda f: shapes[f][2])
    setup_s = setup_probe(
        [BIN, "simulate", smallest, "--threads", 1, "--scale", SIM_SCALE, "--l2-ways", 0]
    )
    return sweep(
        "simulate-sweep", ops, lambda op: sim_op(op, shapes, pred, tally), seconds, setup_s
    )


def sim_trace(seed, specs, ops, shapes, pred, tally):
    layers = run_layers(
        [
            "--workload", "sim",
            *sum((["--spec", s] for s in specs), []),
            "--sim-seed", seed, "--sim-scale", SIM_SCALE, "--ways", SIM_WAYS,
        ]
    )
    untraced, traced = [], []
    for op in ops:
        untraced.append(sim_op(op, shapes, pred, tally)[0])
        traced.append(
            sim_op(op, shapes, pred, tally, extra=["--metrics", WORK / "sim-metrics.json"])[0]
        )
    mean = sum(untraced) / len(untraced)
    return finish_layers(layers, mean, mean, sum(traced) / len(traced))


# --------------------------------------------------------------------
# per-layer plumbing


def run_layers(args):
    code, out, err, wall, _ = run([LAYERS, "measure", "--work", WORK, *args])
    if code != 0:
        raise RuntimeError(f"perfbench-layers failed: {err.strip()[-300:]}")
    log(f"per-layer timings took {wall:.1f} s")
    return json.loads(out.splitlines()[-1])


def finish_layers(layers, op_wall_s, untraced_s, traced_s):
    """Adds the residual (operation wall time the layers do not account
    for) and the tracing overhead, each with its base."""
    layer_sum = layers.pop("layer_sum_s")
    layers["residual_pct"] = 100.0 * (op_wall_s - layer_sum) / op_wall_s
    layers["residual_base_ms"] = op_wall_s * 1e3
    layers["obs.trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    layers["obs.untraced_ms"] = untraced_s * 1e3
    log(
        f"operation {op_wall_s * 1e3:.1f} ms, layers {layer_sum * 1e3:.1f} ms, "
        f"traced {traced_s * 1e3:.1f} ms vs untraced {untraced_s * 1e3:.1f} ms"
    )
    return layers


WORKLOADS = {
    "batch-sweep": batch_sweep,
    "serve-warm": serve_warm,
    "simulate-sweep": simulate_sweep,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    WORK.mkdir(parents=True, exist_ok=True)
    host = host_record()
    print("# host: " + json.dumps(host), flush=True)

    tally = Tally()
    values = WORKLOADS[args.workload](args.seed, args.seconds, args.trace, tally)
    for p in tally.problems[:10]:
        log("problem:", p)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    if args.trace:
        for name, unit in units.items():
            log(f"{name:34} {values[name]:14.3f} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metric_block({k: values[k] for k in units}, units),
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
