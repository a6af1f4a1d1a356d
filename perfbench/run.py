#!/usr/bin/env python3
"""End-to-end benchmark of `rta batch` and `rta serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds `bin/rta.exe` and the
in-process helper `perfbench/pb.exe` with dune, writes the workload's inputs
from the seed (`pb gen`), drives the real binary with request bytes in and
response bytes out, checks every answer, and prints a human-readable report
followed, as its last stdout line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
same inputs are also replayed in-process through each layer's public
functions (`pb replay`) and the metrics are the per-layer ones.
`--workload all` runs every workload.  Exit status: 0 on success, 1 when an
answer is wrong (or batch output differs between worker counts), 2 when the
checkout cannot be built or used.

Workloads (see BENCHMARK.json for why each exists):

  batch-sweep     offline sweep: repetitions of a fresh 180-system file,
                  each through `rta batch --store <fresh>` at --jobs 1
                  (--chunk 1, so every response streams out as it is done)
                  and at --jobs nproc; the two outputs must be identical.
  serve-deadline  `rta serve --socket --jobs nproc`, every request with
                  deadline_ms, in eight calibrated parts.  In each, a
                  closed-loop probe measures the daemon's capacity on cheap
                  shop specs (its knee), then an open loop offers cheap
                  specs at KNEE_SHARE of that capacity, plus heavy specs at
                  long horizons that bust their deadline and overloaded
                  systems (one FCFS processor at utilization 1.15, whose
                  envelope fallback runs past its deadline; 48 per run).

End-to-end metrics, per workload (every workload reports every metric):

  throughput_rps     systems/s of `rta batch --jobs nproc`: the sweep itself
                     on batch-sweep; on serve-deadline, 200 fresh cheap
                     specs analyzed offline in each part
  throughput_rps_j1  the same at --jobs 1
  scaling_eff        throughput_rps / (nproc * throughput_rps_j1), paired
                     within each repetition (rates are medians over
                     repetitions)
  latency_p50_ms,    per request: on serve-deadline from each request's
  latency_p99_ms     scheduled send time to its response, in the open loop;
                     on batch-sweep the time each system's response took to
                     stream out of the --jobs 1 pass.  The "p99" is the 99th
                     percentile when at least 10 samples lie beyond it, else
                     the value with exactly 10 samples beyond it.  A request
                     refused, failed or never answered counts as infinitely
                     late.
  max_rate_rps       serve-deadline: the daemon's capacity, i.e. cheap
                     requests answered per second by the closed-loop probe,
                     which keeps CAPACITY_DEPTH requests outstanding on each
                     of nproc connections, so no worker idles and no backlog
                     grows (median over parts; the report prints the probe's
                     latencies against the 200 ms deadline); batch-sweep:
                     equals throughput_rps (no latency limit offline)
  alloc_words_per_req  minor-heap words per request from the runtime's exit
                     statistics (OCAMLRUNPARAM=v=0x400, all domains)
  peak_rss_mb        VmHWM (ru_maxrss) of the measured rta process
  setup_s            serve: exec to the socket accepting a connection;
                     batch: wall time on empty input.  Median of samples
                     taken in small groups throughout the run.

Timings and rates (but not setup_s) are reported on a reference machine's
scale: before the first and after every measured segment run.py times
`pb calib`, a fixed kernel that runs no code of the repository, and divides
the run's times (or multiplies its rates) by its mean calibration time /
CALIB_REF_S.  A shared host that runs slower for a while then does not read
as a regression.  The report prints the factor.  The deadline contract
(deadline_miss_share) is judged on raw wall time.

fail_share, wrong_answers and deadline_miss_share are printed in the report;
the JSON line carries failures in "failed" and wrong answers in "correct".
"""

import argparse
import json
import math
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
WORK = ".bench_work"
RTA = os.path.join("_build", "default", "bin", "rta.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")

# serve-deadline shape
CHEAP_DEADLINE_MS = 200
HEAVY_PER_S = 0.25
HEAVY_DEADLINE_MS = 100
OVERLOADED = 48  # per run, whatever the run length: more than 1% of requests
OVERLOAD_DEADLINE_MS = 50
DEADLINE_PARTS = 8  # the open loop's calibrated parts; divides OVERLOADED
KNEE_SHARE = 0.4  # the open loop's cheap rate, as a share of the measured capacity
CAPACITY_DEPTH = 4  # requests kept outstanding per connection by the probe: saturates the pool
MAX_CHEAP_RPS = 1500  # generator headroom: cheap specs drawn per second of run
DEADLINE_BATCH = 200  # cheap specs per offline throughput repetition, fresh in each part
# batch-sweep shape
SWEEP_FILE = 180  # systems per repetition: 2.5 cycles of the generator's shapes


def log(*a):
    print(*a, file=sys.stderr, flush=True)


class Fatal(Exception):
    pass


# ---------------------------------------------------------------------------
# build and processes
# ---------------------------------------------------------------------------


def build():
    for f in ("dune-project", os.path.join("bin", "rta.ml"), os.path.join("perfbench", "pb.ml")):
        if not os.path.isfile(f):
            raise Fatal(f"not a source checkout: {f} is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/rta.exe", "./perfbench/pb.exe"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=850)
    if p.returncode != 0:
        raise Fatal("build failed:\n" + p.stderr.decode(errors="replace")[-4000:])


def wait_rusage(p):
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return ru


GC_ENV = dict(os.environ, OCAMLRUNPARAM="v=0x400")


def minor_words(stderr_text):
    m = re.search(r"^minor_words: (\d+)", stderr_text, re.M)
    return int(m.group(1)) if m else 0


def pb(*args):
    subprocess.run([PB, *map(str, args)], check=True, timeout=170)


def read_ndjson(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def oracle(paths, out, cmd="oracle"):
    """`pb oracle` (in-process answers) or `pb sim` (lower bounds on every
    job's response) for every request line of `paths`, split over nproc
    helper processes; returns {id: output line}."""
    lines = []
    for p in paths:
        with open(p, encoding="utf-8") as f:
            lines += [l for l in f if l.strip()]
    if not lines:
        return {}
    parts = []
    for k in range(NPROC):
        chunk = lines[k::NPROC]
        if chunk:
            src = f"{out}.{k}.in"
            with open(src, "w", encoding="utf-8") as f:
                f.writelines(chunk)
            parts.append((src, f"{out}.{k}.out"))
    procs = []
    for src, dst in parts:
        with open(dst, "wb") as out_f:
            procs.append(subprocess.Popen([PB, cmd, src], stdout=out_f))
    if any([p.wait(timeout=170) != 0 for p in procs]):
        raise Fatal(f"pb {cmd} failed")
    expected = {}
    for _, dst in parts:
        for e in read_ndjson(dst):
            expected[e["id"]] = e
    return expected


def tail(values):
    """(p50, p99, label): the 99th percentile when at least 10 samples lie
    beyond it, else the value with exactly 10 samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0.0, "none"
    p50 = v[(n - 1) // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2
    r99 = max(0, -(-99 * n // 100) - 1)
    if n - 1 - r99 >= 10:
        return p50, v[r99], "p99"
    r = max(0, n - 11)
    return p50, v[r], f"p{100.0 * (r + 1) / n:.1f}"


def median(xs):
    return statistics.median(xs) if xs else 0.0


# Median wall time of nproc concurrent `pb calib` kernels on the reference
# machine (2-vCPU VM at 2.0 GHz, OCaml 5.1.1).
CALIB_REF_S = 0.168


class Speed:
    """How fast the shared machine runs, from the calibration kernel timed
    before the first and after every measured segment.  A run's figures are
    put on the reference machine's scale by one factor f, the mean
    calibration time over CALIB_REF_S: timings are reported as raw / f and
    rates as raw * f.  One factor per run, averaged over all its samples:
    single timings of the kernel flip between two speeds from one moment to
    the next, while the drift the factor has to remove is slow (minutes)."""

    def __init__(self):
        self.samples = [self.calib()]

    @staticmethod
    def calib():
        """Mean wall time of nproc concurrent kernels: every core's speed."""
        t0 = time.perf_counter()
        procs = [subprocess.Popen([PB, "calib"]) for _ in range(NPROC)]
        walls = []
        for p in procs:
            if p.wait(timeout=60) != 0:
                raise Fatal("pb calib failed")
            walls.append(time.perf_counter() - t0)
        return sum(walls) / len(walls)

    def step(self):
        self.samples.append(self.calib())

    def factor(self):
        return statistics.mean(self.samples) / CALIB_REF_S

    def summary(self):
        return (f"{self.factor():.3f} from {len(self.samples)} samples "
                f"(single samples {min(self.samples) / CALIB_REF_S:.3f} to {max(self.samples) / CALIB_REF_S:.3f})")


ANALYSIS_FIELDS = ("method", "schedulable", "release_horizon", "horizon", "per_job")
# Statuses that answer a request carrying deadline_ms; anything else (refused,
# failed, invalid) or no response at all counts as a failed request.
ANSWERED = ("ok", "degraded", "timeout")


def answered(r):
    return r is not None and r.get("status") in ANSWERED


class Checker:
    def __init__(self):
        self.wrong = []
        self.failed = 0
        self.attempted = 0

    def bad(self, what):
        if len(self.wrong) < 5:
            log("WRONG:", what)
        self.wrong.append(what)

    def check_ok(self, resp, exp):
        for f in ANALYSIS_FIELDS:
            if resp.get(f) != exp.get(f):
                self.bad(f"{resp.get('id')}: {f} {resp.get(f)!r} != oracle {exp.get(f)!r}")
                return

    def check_degraded(self, resp, exact, lower):
        """Degraded bounds must be sound, job by job.  `lower` (`pb sim`)
        gives what every sound bound respects: at least the simulated worst
        response, and no finite bound where the job crosses an overloaded
        FCFS processor.  `exact` (`pb oracle`, when computed) must be
        dominated where its method is exact: a finite degraded bound where
        the exact one is unbounded, or below it, is wrong.  (An
        "approximate" answer is itself only an upper bound, which envelope
        bounds may undercut.)"""
        got = resp.get("per_job") or []
        rid = resp.get("id")
        for want, what in ((lower, "simulated"), (exact if exact and exact["method"] == "exact" else None, "exact")):
            if want is None:
                continue
            if [j["name"] for j in got] != [j["name"] for j in want["per_job"]]:
                self.bad(f"{rid}: degraded jobs {got} vs {what} {want['per_job']}")
                return
            for g, w in zip(got, want["per_job"]):
                b = g["bound_ticks"]
                if b is None:
                    continue
                if what == "simulated" and (w["unbounded"] or b < w["at_least"]):
                    self.bad(f"{rid}: degraded bound {g} unsound against {what} {w}")
                elif what == "exact" and (w["bound_ticks"] is None or b < w["bound_ticks"]):
                    self.bad(f"{rid}: degraded bound {g} below {what} {w}")


# ---------------------------------------------------------------------------
# rta batch
# ---------------------------------------------------------------------------


def run_batch(path, jobs, store, stream=False):
    """One `rta batch` process.  Returns (wall_s, stdout_bytes, per-line
    gaps in seconds when streaming, minor words, maxrss KiB)."""
    cmd = [RTA, "batch", "--jobs", str(jobs), "--store", store, path]
    if stream:
        cmd[2:2] = ["--chunk", "1"]
    err_path = store + ".stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=GC_ENV)
        out, gaps, prev = [], [], t0
        for line in p.stdout:
            now = time.perf_counter()
            gaps.append(now - prev)
            prev = now
            out.append(line)
        ru = wait_rusage(p)
        wall = time.perf_counter() - t0
    with open(err_path, encoding="utf-8", errors="replace") as f:
        words = minor_words(f.read())
    if p.returncode != 0:
        raise Fatal(f"rta batch exited {p.returncode} on {path}")
    return wall, b"".join(out), gaps, words, ru.ru_maxrss


# Set-up samples taken after each measured segment.  Start-up takes a few
# milliseconds, too short for the speed factor to describe: set-up wall times
# are reported raw.
SETUP_GROUP = 4


def batch_start(rundir):
    """Wall time of one `rta batch --store <fresh>` on empty input."""
    empty = os.path.join(rundir, "empty.ndjson")
    open(empty, "w").close()
    store = os.path.join(rundir, "empty-store")
    t0 = time.perf_counter()
    subprocess.run([RTA, "batch", "--store", store, empty], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    shutil.rmtree(store, ignore_errors=True)
    return wall


def batch_rep(rundir, path, n, rep, chk):
    """One repetition: `path` (n systems) through --jobs 1 (streaming) and
    --jobs nproc, each into a fresh store, in alternating order; the two
    outputs must be byte-identical."""
    res, outs = {}, {}
    for jobs in ([1, NPROC] if rep % 2 == 0 else [NPROC, 1]):
        store = os.path.join(rundir, f"store-{rep}-{jobs}")
        wall, out, gaps, words, rss = run_batch(path, jobs, store, stream=(jobs == 1))
        shutil.rmtree(store, ignore_errors=True)
        os.remove(store + ".stderr")
        res[jobs] = (wall, gaps[1:], words, rss)  # the first gap includes process start
        outs[jobs] = out.splitlines()
        chk.attempted += n
        chk.failed += max(0, n - len(outs[jobs])) + sum(
            1 for l in outs[jobs] if json.loads(l).get("status") != "ok")
    if outs[1] != outs[NPROC]:
        chk.bad(f"batch output at --jobs {NPROC} differs from --jobs 1 ({path})")
    return res


class Offline:
    """`batch_rep` results.  Rates are medians over repetitions, which
    shrugs off the bursts of a shared machine; scaling_eff pairs the two
    worker counts within each repetition."""

    def __init__(self):
        self.rate1, self.raten, self.scaling, self.gaps, self.words, self.rss = [], [], [], [], [], []

    def add(self, res, n):
        """One repetition of n systems."""
        self.rate1.append(n / res[1][0])
        self.raten.append(n / res[NPROC][0])
        self.scaling.append(self.raten[-1] / (NPROC * self.rate1[-1]))
        self.gaps += res[1][1]
        self.words.append(res[NPROC][2] / n)
        self.rss.append(res[NPROC][3])

    def metrics(self, f):
        """On the reference scale, for speed factor f."""
        return {
            "throughput_rps": median(self.raten) * f,
            "throughput_rps_j1": median(self.rate1) * f,
            "scaling_eff": median(self.scaling),
            "gaps": [g / f for g in self.gaps],
            "words": median(self.words),
            "rss_kib": median(self.rss),
            "reps": len(self.rate1),
        }


def throughput_passes(rundir, paths, n, budget_s, chk, speed, min_reps=3):
    """Repetitions of `batch_rep` over `paths` (cycled) until `budget_s` is
    spent, each followed by SETUP_GROUP empty-input starts.  Returns the
    metrics and the starts' wall times."""
    off, setup = Offline(), []
    start = time.perf_counter()
    while len(off.rate1) < min_reps or time.perf_counter() - start < budget_s:
        off.add(batch_rep(rundir, paths[len(off.rate1) % len(paths)], n, len(off.rate1), chk), n)
        setup += [batch_start(rundir) for _ in range(SETUP_GROUP)]
        speed.step()
    return off.metrics(speed.factor()), setup


# ---------------------------------------------------------------------------
# rta serve
# ---------------------------------------------------------------------------


class Daemon:
    def __init__(self, rundir, name, metrics=None):
        self.sock = os.path.join(rundir, name + ".sock")
        self.err = os.path.join(rundir, name + ".stderr")
        cmd = [RTA, "serve", "--no-stdio", "--socket", self.sock, "--jobs", str(NPROC)]
        if metrics:
            cmd += ["--metrics", metrics]
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        with open(self.err, "wb") as err:
            t0 = time.perf_counter()
            self.p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                      stderr=err, env=GC_ENV)
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                self.setup_s = time.perf_counter() - t0
                s.close()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if self.p.poll() is not None:
                    raise Fatal("rta serve exited during start-up")
                if time.perf_counter() - t0 > 30:
                    self.stop()
                    raise Fatal("rta serve never accepted a connection")
                time.sleep(0.0005)

    def stop(self):
        if self.p.returncode is None:
            self.p.send_signal(signal.SIGTERM)
            try:
                ru = wait_rusage(self.p)
            except ChildProcessError:
                ru = None
            self.maxrss = ru.ru_maxrss if ru else 0
        with open(self.err, encoding="utf-8", errors="replace") as f:
            self.stderr = f.read()
        self.minor_words = minor_words(self.stderr)


def serve_start(rundir):
    """Exec of `rta serve --socket` to its socket accepting a connection."""
    d = Daemon(rundir, "setup")
    d.stop()
    return d.setup_s


def open_loop(sock, schedule, drain_s):
    """Send each (t_offset_s, payload) of `schedule` at its due time over
    nproc connections from this thread; one receiver thread collects the
    responses.  Returns (due times, send lateness, [(recv_time, line)])."""
    conns = []
    for _ in range(min(NPROC, 2) or 1):
        c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        c.connect(sock)
        conns.append(c)
    received = []
    expected = len(schedule)
    stop = threading.Event()

    def receiver():
        sel = selectors.DefaultSelector()
        bufs = {}
        for c in conns:
            sel.register(c, selectors.EVENT_READ)
            bufs[c] = b""
        open_conns = len(conns)
        while open_conns and len(received) < expected and not stop.is_set():
            for key, _ in sel.select(timeout=0.1):
                c = key.fileobj
                data = c.recv(1 << 16)
                now = time.perf_counter()
                if not data:
                    sel.unregister(c)
                    open_conns -= 1
                    continue
                buf = bufs[c] + data
                *lines, bufs[c] = buf.split(b"\n")
                for l in lines:
                    received.append((now, l))
        sel.close()

    th = threading.Thread(target=receiver)
    th.start()
    t0 = time.perf_counter() + 0.02
    due, late = [], []
    for i, (off, payload) in enumerate(schedule):
        d = t0 + off
        now = time.perf_counter()
        if now < d:
            time.sleep(d - now)
        s = time.perf_counter()
        conns[i % len(conns)].sendall(payload)
        due.append(d)
        late.append(s - d)
    end = time.perf_counter() + drain_s
    while th.is_alive() and time.perf_counter() < end:
        th.join(timeout=0.05)
    stop.set()
    th.join()
    for c in conns:
        c.close()
    return due, late, received


def closed_loop(sock, requests, seconds, depth):
    """Keep `depth` of `requests` ([(id, payload)], sent in order)
    outstanding on each of nproc connections for `seconds`, then let the
    outstanding ones finish.  Returns (ids sent, send times,
    [(recv_time, line)], wall from the first send to the last response)."""
    conns = []
    for _ in range(min(NPROC, 2) or 1):
        c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        c.connect(sock)
        conns.append(c)
    sel = selectors.DefaultSelector()
    bufs, outstanding = {}, {}
    for c in conns:
        sel.register(c, selectors.EVENT_READ)
        bufs[c], outstanding[c] = b"", 0
    pending = iter(requests)
    ids, sent_at, received = [], [], []

    def send(c):
        nxt = next(pending, None)
        if nxt is None:
            return
        ids.append(nxt[0])
        sent_at.append(time.perf_counter())
        c.sendall(nxt[1])
        outstanding[c] += 1

    t0 = time.perf_counter()
    for _ in range(depth):
        for c in conns:
            send(c)
    stop_sending = t0 + seconds
    last = t0
    while any(outstanding.values()):
        events = sel.select(timeout=30)
        if not events:
            break  # the rest are missing
        for key, _ in events:
            c = key.fileobj
            data = c.recv(1 << 16)
            now = time.perf_counter()
            if not data:
                sel.unregister(c)
                outstanding[c] = 0
                continue
            *lines, bufs[c] = (bufs[c] + data).split(b"\n")
            for l in lines:
                received.append((now, l))
                last = now
                outstanding[c] -= 1
                if now < stop_sending:
                    send(c)
    sel.close()
    for c in conns:
        c.close()
    return ids, sent_at, received, last - t0


def req_line(rid, spec_line, deadline_ms=None):
    o = dict(spec_line)
    o["id"] = rid
    if deadline_ms is not None:
        o["deadline_ms"] = deadline_ms
    return (json.dumps(o, separators=(",", ":")) + "\n").encode()


def phase_results(schedule_ids, due, received):
    """Map responses to requests: per-request latency in seconds from the
    due time (infinite unless the request was answered, see ANSWERED) and
    parsed response (None when missing)."""
    index = {rid: i for i, rid in enumerate(schedule_ids)}
    lat = [math.inf] * len(schedule_ids)
    resp = [None] * len(schedule_ids)
    for t, line in received:
        r = json.loads(line)
        i = index.get(r.get("id"))
        if i is not None and resp[i] is None:
            resp[i] = r
            if answered(r):
                lat[i] = t - due[i]
    return lat, resp


def spec_of(rid):
    """The generated spec id behind a request id "<phase>.<seq>.<spec id>"."""
    return rid.split(".", 2)[2]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def workload_batch_sweep(seed, seconds, trace, rundir, chk):
    reps_max = max(4, int(seconds * 2))
    pb("gen", "batch-sweep", seed, rundir, SWEEP_FILE * reps_max)
    systems = read_ndjson(os.path.join(rundir, "s.ndjson"))
    files = []
    for k in range(reps_max):
        path = os.path.join(rundir, f"sweep-{k}.ndjson")
        with open(path, "w", encoding="utf-8") as f:
            for s in systems[k * SWEEP_FILE:(k + 1) * SWEEP_FILE]:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")
        files.append(path)
    m, report = {}, {}
    if not trace:
        speed = Speed()
        # Every repetition analyzes a fresh file: more distinct systems per run.
        tp, setup = throughput_passes(rundir, files, SWEEP_FILE, seconds, chk, speed)
        gaps, reps = tp["gaps"], tp["reps"]
        p50, p99, label = tail([g * 1e3 for g in gaps])
        thr, thr1 = tp["throughput_rps"], tp["throughput_rps_j1"]
        m = {
            "throughput_rps": (thr, "1/s"),
            "throughput_rps_j1": (thr1, "1/s"),
            "scaling_eff": (tp["scaling_eff"], "ratio"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p99_ms": (p99, "ms"),
            "max_rate_rps": (thr, "1/s"),
            "alloc_words_per_req": (tp["words"], "words"),
            "peak_rss_mb": (tp["rss_kib"] / 1024.0, "MB"),
            "setup_s": (median(setup), "s"),
        }
        report = {"repetitions": reps, "setup_samples": len(setup), "systems": reps * SWEEP_FILE, "latency_samples": len(gaps),
                  "latency_p99_is": label, "nproc": NPROC, "speed factor": speed.summary()}
        return m, report
    # Traced: replay four files' worth in-process, into an empty store as
    # `rta batch --store <fresh>` does.
    path = os.path.join(rundir, "trace.ndjson")
    with open(path, "w", encoding="utf-8") as f:
        for k in range(4):
            with open(files[k], encoding="utf-8") as g:
                f.write(g.read())
    n = 4 * SWEEP_FILE
    chk.attempted += n
    store = os.path.join(rundir, "empty-store")
    os.makedirs(store, exist_ok=True)
    rp = replay(rundir, path, store)
    return per_layer(rp, n, wait=None, queue=None, late=None, deadline_miss=0.0, wall=None, report=report), report


def workload_serve_deadline(seed, seconds, trace, rundir, chk):
    # The run is DEADLINE_PARTS back-to-back parts, each followed by a
    # calibration sample (see Speed):
    #   1. an offline repetition: the part's own DEADLINE_BATCH cheap specs
    #      through `rta batch` at --jobs 1 and --jobs nproc (throughput
    #      metrics);
    #   2. the capacity probe: a closed loop of fresh cheap specs that keeps
    #      every worker busy for probe_s (the knee; max_rate_rps);
    #   3. the open loop: cheap specs at KNEE_SHARE of the capacity the
    #      probes so far measured on this machine (their median), plus the
    #      part's heavy and overloaded specs, for part_s (latency metrics);
    #   4. SETUP_GROUP daemon starts (setup_s).
    # Rates and capacities are medians over parts; latencies are pooled.
    probe_s = 0.12 * seconds / DEADLINE_PARTS
    part_s = 0.5 * seconds / DEADLINE_PARTS
    n_heavy = max(1, round(HEAVY_PER_S * part_s))
    n_over = OVERLOADED // DEADLINE_PARTS
    n_offline = DEADLINE_BATCH * DEADLINE_PARTS
    n_cheap_max = n_offline + int(MAX_CHEAP_RPS * (probe_s + KNEE_SHARE * part_s) * DEADLINE_PARTS)
    pb("gen", "serve-deadline", seed, rundir, n_cheap_max, n_heavy * DEADLINE_PARTS, OVERLOADED)
    cheap = read_ndjson(os.path.join(rundir, "c.ndjson"))
    heavy = read_ndjson(os.path.join(rundir, "x.ndjson"))
    over = read_ndjson(os.path.join(rundir, "o.ndjson"))
    specs = {s["id"]: s for s in cheap + heavy + over}
    offline = []
    for k in range(DEADLINE_PARTS):
        offline.append(os.path.join(rundir, f"offline-{k}.ndjson"))
        with open(offline[-1], "w", encoding="utf-8") as f:
            for s in cheap[k * DEADLINE_BATCH:(k + 1) * DEADLINE_BATCH]:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")
    m, report = {}, {}
    if not trace:
        speed, setup, off = Speed(), [], Offline()
    d = Daemon(rundir, "deadline", metrics=os.path.join(rundir, "metrics.json") if trace else None)
    # The daemon never sees a spec twice: nothing it answers comes from its
    # cache.
    fresh = iter(cheap[n_offline:])
    ids_p, resp_p, lat_p, capacity, rates = [], [], [], [], []
    ids, deadlines, sched, lat, resp, late = [], [], [], [], [], []
    try:
        for k in range(DEADLINE_PARTS):
            if not trace:
                res = batch_rep(rundir, offline[k], DEADLINE_BATCH, k, chk)
            probe_reqs = ((f"p{k}.{i}.{s['id']}", req_line(f"p{k}.{i}.{s['id']}", s, CHEAP_DEADLINE_MS))
                          for i, s in enumerate(fresh))
            ids_k, sent_k, got_k, wall_k = closed_loop(d.sock, probe_reqs, probe_s, CAPACITY_DEPTH)
            lat_k, resp_k = phase_results(ids_k, sent_k, got_k)
            ids_p += ids_k
            resp_p += resp_k
            lat_p += lat_k
            cap = sum(1 for r in resp_k if answered(r)) / wall_k
            capacity.append(cap)
            rate = KNEE_SHARE * median(capacity)
            rates.append(rate)
            part_cheap = [next(fresh, None) for _ in range(max(1, int(rate * part_s)))]
            if part_cheap[-1] is None:
                raise Fatal(f"capacity {cap:.0f}/s is above the generator's headroom (MAX_CHEAP_RPS)")
            # Cheap requests at a steady rate; heavy and overloaded ones evenly
            # spread over the part, never at the same instant.
            events = [(i / rate, s, CHEAP_DEADLINE_MS) for i, s in enumerate(part_cheap)]
            events += [((i + 0.37) * part_s / n_heavy, s, HEAVY_DEADLINE_MS)
                       for i, s in enumerate(heavy[k * n_heavy:(k + 1) * n_heavy])]
            events += [((i + 0.71) * part_s / n_over, s, OVERLOAD_DEADLINE_MS)
                       for i, s in enumerate(over[k * n_over:(k + 1) * n_over])]
            events.sort(key=lambda e: e[0])
            part = [(t, f"d{k}.{i}.{s['id']}", s, dl) for i, (t, s, dl) in enumerate(events)]
            s_k = [(t, req_line(rid, s, dl)) for t, rid, s, dl in part]
            ids_k = [rid for _, rid, _, _ in part]
            due_k, late_k, got_k = open_loop(d.sock, s_k, drain_s=60)
            lat_k, resp_k = phase_results(ids_k, due_k, got_k)
            if not trace:
                setup += [serve_start(rundir) for _ in range(SETUP_GROUP)]
                speed.step()
                off.add(res, DEADLINE_BATCH)
            ids += ids_k
            deadlines += [dl for _, _, _, dl in part]
            sched += s_k
            lat += lat_k
            resp += resp_k
            late += late_k
    finally:
        d.stop()
    factor = 1.0 if trace else speed.factor()
    # Answers to check, computed outside measured time: in-process results
    # for every cheap spec sent and for any other spec answered "ok", and
    # simulated lower bounds for every spec answered "degraded".
    all_resp = list(zip(ids_p + ids, resp_p + resp))
    need = sorted({spec_of(rid) for rid, r in all_resp
                   if spec_of(rid)[0] == "c" or (r is not None and r.get("status") == "ok")})
    degraded = sorted({spec_of(rid) for rid, r in all_resp if r is not None and r.get("status") == "degraded"})
    expected, lower = {}, {}
    for ids_, cmd, into in ((need, "oracle", expected), (degraded, "sim", lower)):
        if ids_:
            path = os.path.join(rundir, f"{cmd}-specs.ndjson")
            with open(path, "w", encoding="utf-8") as f:
                for sid in ids_:
                    f.write(json.dumps(specs[sid]) + "\n")
            into.update(oracle([path], os.path.join(rundir, cmd), cmd))
    account(chk, report, "capacity probe", ids_p, lat_p, resp_p, None, expected, lower)
    account(chk, report, f"open loop (cheap {median(rates):.1f}/s median)", ids, lat, resp, late, expected, lower)
    on_time = sum(1 for x, dl in zip(lat, deadlines) if x * 1e3 <= 2 * dl)
    miss_share = 1 - on_time / len(ids)
    report["deadline_miss_share"] = miss_share
    report["capacity (reference scale)"] = " ".join(f"{c * factor:.1f}" for c in capacity)
    p50, p99, label = tail([x * 1e3 / factor for x in lat])
    report["latency_p99_is"] = label
    phase_s = part_s * DEADLINE_PARTS
    if trace:
        req = os.path.join(rundir, "sent.ndjson")
        with open(req, "wb") as f:
            f.writelines(p for _, p in sched)
        rp = replay(rundir, req, "-")
        metrics = read_json(os.path.join(rundir, "metrics.json"))
        return per_layer(rp, len(sched), wait=lat, queue=metrics, late=late, deadline_miss=miss_share,
                         wall=phase_s, report=report), report
    report["setup_samples"] = len(setup)
    report["speed factor"] = speed.summary()
    tp = off.metrics(factor)
    m = {
        "throughput_rps": (tp["throughput_rps"], "1/s"),
        "throughput_rps_j1": (tp["throughput_rps_j1"], "1/s"),
        "scaling_eff": (tp["scaling_eff"], "ratio"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "max_rate_rps": (median(capacity) * factor, "1/s"),
        "alloc_words_per_req": (d.minor_words / (len(ids_p) + len(ids)), "words"),
        "peak_rss_mb": (d.maxrss / 1024.0, "MB"),
        "setup_s": (median(setup), "s"),
    }
    return m, report


def account(chk, report, phase, ids, lat, resp, late, expected, lower):
    """Open-loop accounting and answer checks for one phase.  `late` is the
    generator's send lateness per request (None for the closed loop)."""
    ok = refused = failed = timeouts = degraded = 0
    for rid, r in zip(ids, resp):
        chk.attempted += 1
        if r is None:
            failed += 1
            continue
        st = r.get("status")
        sid = spec_of(rid)
        if st == "ok":
            ok += 1
            if sid not in expected:
                chk.bad(f"{rid}: no oracle answer for an ok response")
            else:
                chk.check_ok(r, expected[sid])
        elif st == "degraded":
            degraded += 1
            if sid not in lower:
                chk.bad(f"{rid}: no simulated bounds for a degraded response")
            else:
                chk.check_degraded(r, expected.get(sid), lower[sid])
        elif st == "timeout":
            timeouts += 1
        elif st == "queue_full":
            refused += 1
        else:
            failed += 1
            if failed <= 3:
                log(f"unexpected response to {rid}: {json.dumps(r)[:300]}")
    chk.failed += refused + failed
    lat_p50, lat_tail, _ = tail([x * 1e3 for x in lat])
    line = (f"attempted {len(ids)}, succeeded {ok + degraded} ({degraded} degraded), "
            f"timeout {timeouts}, refused {refused}, failed {failed}; latency p50 {lat_p50:.2f} ms "
            f"tail {lat_tail:.2f} ms")
    if late is not None:
        _, late_p99, _ = tail([x * 1e3 for x in late])
        flag = " GENERATOR-BOUND" if late_p99 >= 0.5 * lat_p50 else ""
        line += f"; loadgen.late_p99_ms {late_p99:.3f}{flag}"
    by_class = {}
    for rid, x in zip(ids, lat):
        by_class.setdefault(spec_of(rid)[0], []).append(x * 1e3)
    classes = ", ".join(f"{c}: n {len(v)} p50 {tail(v)[0]:.1f} max {max(v):.1f} ms" for c, v in sorted(by_class.items()))
    report.setdefault("phases", []).append(f"{phase} [{classes}]: {line}")


def read_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------


def replay(rundir, requests, store):
    out = os.path.join(rundir, "replay.json")
    pb("replay", NPROC, store, requests, out)
    return read_json(out)


def per_layer(rp, n, wait, queue, late, deadline_miss, wall, report):
    L = rp["layers"]
    wall_s = rp["traced_wall_s"]
    report["layers (self time)"] = "".join(
        f"\n    {k:28s} calls {l['calls']:7d}  self {l['self_s'] * 1e3:10.2f} ms  {100 * l['self_s'] / wall_s:6.2f}%"
        for k, l in sorted(L.items(), key=lambda kv: -kv[1]["self_s"]))
    report["self times / traced wall"] = sum(l["self_s"] for l in L.values()) / wall_s

    def us(name):
        l = L.get(name)
        return l["self_s"] / l["calls"] * 1e6 if l and l["calls"] else 0.0

    def words(name):
        l = L.get(name)
        return l["self_words"] / l["calls"] if l and l["calls"] else 0.0

    analyses = sum(L[k]["calls"] for k in L if k.startswith("analysis."))
    root = L.get("request", {"self_s": 0.0})
    traced = sum(l["self_s"] for l in L.values())
    env = L.get("envelope.system_bounds")
    engine_total = rp["engine_s"] + rp["fixpoint_s"]
    service = rp["service_s"]
    m = {
        "batch.decode.us": (us("batch.decode"), "us"),
        "batch.decode.words": (words("batch.decode"), "words"),
        "parser.parse.us": (us("parser.parse"), "us"),
        "parser.parse.words": (words("parser.parse"), "words"),
        "key.us": (us("key"), "us"),
        "key.words": (words("key"), "words"),
        "cache.lookup.us": (us("cache.lookup"), "us"),
        "cache.hit_ratio": (rp["cache_hit_ratio"], "ratio"),
        "batch.encode.us": (us("batch.encode"), "us"),
        "batch.encode.words": (words("batch.encode"), "words"),
        "store.find.us": (us("store.find"), "us"),
        "store.put.us": (us("store.put"), "us"),
        "store.hit_ratio": (rp["store_hit_ratio"], "ratio"),
        "store.open.s": (rp["store_open_s"], "s"),
        "analysis.exact.us": (us("analysis.exact"), "us"),
        "analysis.exact.words": (words("analysis.exact"), "words"),
        "analysis.approximate.us": (us("analysis.approximate"), "us"),
        "analysis.approximate.words": (words("analysis.approximate"), "words"),
        "analysis.fixpoint.us": (us("analysis.fixpoint"), "us"),
        "analysis.fixpoint.words": (words("analysis.fixpoint"), "words"),
        "engine.run.us": (rp["engine_s"] / analyses * 1e6 if analyses else 0.0, "us"),
        "response.us": ((rp["analysis_run_s"] - engine_total) / analyses * 1e6 if analyses else 0.0, "us"),
        "fixpoint.iterations": (rp["fixpoint_iterations"], "count"),
        "curve.prefix_min.calls": (rp["prefix_min_calls"] / n, "calls/req"),
        "curve.prefix_min.us": (rp["prefix_min_s"] / n * 1e6, "us"),
        "curve.pl.calls": (rp["pl_calls"] / n, "calls/req"),
        "curve.fixpoint.recomputes": (rp["fixpoint_recomputes"] / n, "count/req"),
        "curve.share_of_engine": (rp["prefix_min_s"] / engine_total if engine_total else 0.0, "ratio"),
        "envelope.system_bounds.us.p50": (env["p50_s"] * 1e6 if env else 0.0, "us"),
        "envelope.system_bounds.us.max": (env["max_s"] * 1e6 if env else 0.0, "us"),
        "envelope.system_bounds.words": (words("envelope.system_bounds"), "words"),
        "backend.efficiency": (rp["backend_efficiency"] if wall is None
                               else sum(service) / (NPROC * wall), "ratio"),
        "gc.minor_collections": (rp["gc_minor_collections"], "count/req"),
        "gc.major_collections": (rp["gc_major_collections"], "count/req"),
        "gc.promoted_words": (rp["gc_promoted_words"], "words/req"),
        "unattributed_share": (1 - (traced - root["self_s"]) / rp["traced_wall_s"], "ratio"),
        "trace_overhead": (rp["traced_wall_s"] / rp["untraced_wall_s"], "ratio"),
    }
    if wait is not None:
        w = [(x - s) * 1e3 for x, s in zip(wait, service) if math.isfinite(x)]
        wp50, wp99, _ = tail(w)
    else:
        wp50 = wp99 = 0.0
    gauges = (queue or {}).get("gauges", {})
    counters = (queue or {}).get("counters", {})
    _, late_p99, _ = tail([x * 1e3 for x in late]) if late else (0, 0.0, "")
    m.update({
        "server.wait_ms.p50": (wp50, "ms"),
        "server.wait_ms.p99": (wp99, "ms"),
        "server.queue.high_water": (float(gauges.get("service.queue.high_water", 0)), "count"),
        "server.rejected": (float(counters.get("service.queue.rejected", 0)), "count"),
        "loadgen.late_p99_ms": (late_p99, "ms"),
        "service.deadline_miss_share": (deadline_miss, "ratio"),
    })
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

WORKLOADS = {
    "batch-sweep": workload_batch_sweep,
    "serve-deadline": workload_serve_deadline,
}


def run_one(name, seed, seconds, trace):
    rundir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    chk = Checker()
    try:
        metrics, report = WORKLOADS[name](seed, seconds, trace, rundir, chk)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return metrics, report, chk


def print_report(name, metrics, report, chk):
    print(f"== {name} (nproc {NPROC})")
    for line in report.pop("phases", []):
        print("  phase", line)
    for k, v in report.items():
        print(f"  {k}: {v}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:34s} {v:14.6g} {unit}")
    fail_share = chk.failed / chk.attempted if chk.attempted else 0.0
    print(f"  {'fail_share':34s} {fail_share:14.6g} ratio")
    print(f"  {'wrong_answers':34s} {len(chk.wrong):14d} count")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        all_metrics, attempted, failed, wrong = {}, 0, 0, 0
        for name in names:
            metrics, report, chk = run_one(name, args.seed, args.seconds, bool(args.trace))
            print_report(name, metrics, report, chk)
            prefix = f"{name}." if args.workload == "all" else ""
            for k, (v, unit) in metrics.items():
                all_metrics[prefix + k] = {"value": v, "unit": unit}
            attempted += chk.attempted
            failed += chk.failed
            wrong += len(chk.wrong)
    except (Fatal, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}), flush=True)
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
