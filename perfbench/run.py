#!/usr/bin/env python3
"""End-to-end benchmark of simrankpp: the offline build and the serving
daemon, driven from outside.

    python3 perfbench/run.py --workload ladder-m --seed 1 --seconds 12 \
        --trace 0

Run from the root of a source checkout. The first run builds the
repository and the benchmark's helper (perfbench_tool) with CMake into
.bench_build/; scratch files go to .bench_work/ and are removed at exit;
a traced run writes its spans to .bench_traces/.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see
perfbench/CATALOGUE.md). Any output mismatch prints correct=false and
exits 1. `--self-test` runs the statistics unit tests instead.
"""

import argparse
import concurrent.futures
import contextlib
import http.client
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import stats  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
TRACES = os.path.join(ROOT, ".bench_traces")
NPROC = len(os.sched_getaffinity(0))
CONNECTIONS = min(2, NPROC)
SETUP_REPEATS = 3
SLICES = 2  # light/busy alternations per serving period
WARMUP_S = 1.0  # untimed traffic before each serving period

# Graph sizes: (num_queries, num_ads, categories, subtopics per category).
# M is the ladder-M rung (85,110 clicked queries, 150,758 edges); S and L
# are the serve-churn tenants' graphs (12,999 and 2,332 clicked queries).
# Like the ladder, the graphs are fixed inputs generated with one seed;
# --seed drives the traffic (query popularity and the request streams).
GRAPH_SEED = 7
GRAPHS = {
    "M": (300000, 60000, 1200, 20),
    "S": (40000, 8000, 120, 20),
    "L": (7000, 1800, 36, 20),
}

# Both workloads run the whole pipeline of the paper's Figure 2 (click
# graph -> `simrankpp compute` children -> snapshot -> serve-daemon ->
# TopK over TCP), so every metric is measured on each; they differ in
# graph size, tenant mix and traffic. Each set-up builds the served
# snapshots with fresh compute children, which give build_s, and its
# daemon then serves one period of the timed window: open-loop slices at
# the light and busy rates (requests/second) in turn, then the ladder
# until a rate misses the p99 limit.
WORKLOADS = {
    # The ladder-M rung: the offline build at its full size, then its
    # snapshot (far larger than L2) served to a Zipf-skewed stream.
    "ladder-m": {
        "build_graph": "M",
        "tenants": [{"name": "hot", "graph": "M", "method": "weighted"}],
        "targets": [("hot", 1.0, 1.0)],
        "light": 10000, "busy": 25000,
        "ladder": [36000, 52000, 75000, 100000],
        "p99_limit_us": 10000, "watch": False,
    },
    # A snapshot tenant whose file is replaced by rename with an alternate
    # build every second (hot reload beside reads), and an on-demand
    # linearized tenant whose ~2.3k-query working set is over twice its
    # 1024-row cache (cold rows, inserts and evictions).
    "serve-churn": {
        "build_graph": "S",
        "tenants": [
            {"name": "swap", "graph": "S", "method": "weighted",
             "alternate": "simrank"},
            {"name": "lazy", "graph": "L", "on_demand": True},
        ],
        "targets": [("swap", 0.9, 1.0), ("lazy", 0.1, 0.8)],
        "light": 4000, "busy": 15000,
        "ladder": [22000, 30000, 45000, 65000],
        "p99_limit_us": 25000, "watch": True, "swap_every_s": 1.0,
    },
}

# Metric name -> unit. The end-to-end set is what --trace 0 prints, the
# per-layer set what --trace 1 prints; BENCHMARK.json lists the same
# names (test_stats.py checks that).
END_TO_END = {
    "setup_s": "s", "build_s": "s", "rss_peak_mb": "MB",
    "serve_cpu_us": "us",
}
PER_LAYER = {
    "synth.generate_s": "s",
    "graph.load_s": "s",
    "core.engine_run_s": "s",
    "core.engine_run_warm_s": "s",
    "core.engine_run_1t_s": "s",
    "core.thread_speedup": "ratio",
    "core.parallel_efficiency": "ratio",
    "core.export_s": "s",
    "core.snapshot_save_s": "s",
    "core.snapshot_load_s": "s",
    "core.rescored_pairs": "count",
    "core.reused_pairs": "count",
    "core.query_pairs": "count",
    "core.snapshot_bytes": "bytes",
    "core.build_1t_s": "s",
    "core.compute_rss_mb": "MB",
    "core.linearized_prepare_s": "s",
    "core.linearized_row_us": "us",
    "rewrite.service_build_s": "s",
    "rewrite.topk_us": "us",
    "rewrite.topk_batch_us_per_query": "us",
    "rewrite.row_cache_hit_ratio": "ratio",
    "rewrite.row_cache_lookups": "count",
    "rewrite.rows_computed": "count",
    **{"serve.%s.stage.%s%s" % (phase, stage, suffix): unit
       for phase in ("light", "busy")
       for stage in stats.STAGES
       for suffix, unit in (("_us", "us"), (".share", "ratio"))},
    **{"serve.%s.%s" % (phase, name): "us"
       for phase in ("light", "busy")
       for name in ("client_mean_us", "in_daemon_us", "outside_us")},
    **{"serve.%s.%s_us" % (phase, q): "us"
       for phase in ("light", "busy") for q in ("p50", "p99")},
    "serve.max_qps_slo": "1/s",
    "serve.batch_size_mean": "requests",
    "serve.shed": "count",
    "serve.rate_limited": "count",
    "serve.cold_requests": "count",
    "serve.reload_s": "s",
    "serve.reloads_applied": "count",
    "serve.reloads_failed": "count",
    "serve.daemon_rss_mb": "MB",
    "serve.protocol_ns": "ns",
    "loadgen.send_lag_p99_us": "us",
    "loadgen.cpu_s": "s",
    "loadgen.requests": "count",
    "trace.untraced_build_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

RELOADS_APPLIED = re.compile(
    r'^srpp_reloads_total\{outcome="applied"\} (\S+)$', re.M)


class CheckFailed(Exception):
    """An output of the program differs from its reference."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Spans:
    """In-memory spans (name, parent, request id, start, end) on the
    CLOCK_MONOTONIC axis the helper binary also uses; written at exit."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.rows = {}
        self.stack = []

    def begin(self, name):
        if not self.enabled:
            return None
        sid = "p%d" % len(self.rows)
        parent = self.stack[-1] if self.stack else None
        self.rows[sid] = [name, parent, 0, time.monotonic_ns(), 0]
        self.stack.append(sid)
        return sid

    def add_requests(self, records, phase_sid):
        """One span per open-loop request, from its due time to its reply
        (request id = its position in the phase)."""
        if not self.enabled:
            return
        for i, (due, _sent, done, *_rest) in enumerate(records):
            if done >= 0:
                self.rows["%s.r%d" % (phase_sid, i)] = [
                    "client.request", phase_sid, i, due, done]

    def end(self, sid):
        if sid is None:
            return
        self.rows[sid][4] = time.monotonic_ns()
        self.stack.remove(sid)

    @contextlib.contextmanager
    def span(self, name):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def adopt(self, path, tag):
        """Reads a perfbench_tool span file and hangs its roots under the
        innermost open span."""
        if not self.enabled or not os.path.exists(path):
            return
        parent = self.stack[-1] if self.stack else None
        with open(path) as f:
            for line in f:
                sid, par, rid, name, start, end = line.rstrip("\n").split("\t")
                self.rows["%s%s" % (tag, sid)] = [
                    name, "%s%s" % (tag, par) if par != "-1" else parent,
                    int(rid), int(start), int(end)]

    def write(self, path):
        with open(path, "w") as f:
            for sid, (name, parent, rid, start, end) in self.rows.items():
                f.write("%s\t%s\t%d\t%s\t%d\t%d\n"
                        % (sid, parent or "-", rid, name, start, end))

    def duration(self, name):
        return sum(end - start for n, _p, _r, start, end
                   in self.rows.values() if n == name) / 1e9

    def self_times(self, prefix):
        """Self times of the spans whose id starts with `prefix` (one
        adopted span file)."""
        return stats.self_times({
            sid: (name, parent, start, end)
            for sid, (name, parent, _rid, start, end) in self.rows.items()
            if sid.startswith(prefix)})


class Bench:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".bench_work",
                                 "%s-%d" % (name, os.getpid()))
        self.tool = os.path.join(BUILD, "perfbench_tool")
        self.cli = os.path.join(BUILD, "simrankpp", "tools", "simrankpp")
        self.spans = Spans(trace)
        self.daemon = None
        self.layer = {}
        self.attempted = 0
        self.failed = 0
        self.env = {}
        self.graph_sizes = {}
        self.slices = 0

    # ---------------------------------------------------------- processes
    def run_tool(self, args, span_tag=None):
        """Runs perfbench_tool to completion; returns its JSON summary."""
        spans_file = None
        if span_tag and self.trace:
            spans_file = os.path.join(self.work, span_tag + ".spans")
            args = args + ["--spans", spans_file]
        out = subprocess.run([self.tool] + args, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, timeout=150)
        if out.returncode == 3:
            raise CheckFailed(out.stderr.strip())
        if out.returncode != 0:
            raise RuntimeError("perfbench_tool %s failed (%d): %s"
                               % (args[0], out.returncode, out.stderr.strip()))
        if spans_file:
            self.spans.adopt(spans_file, span_tag + ":")
        return json.loads(out.stdout.strip().splitlines()[-1])

    def compute(self, graph, out, method="weighted", threads=None):
        """One `simrankpp compute` child: returns (wall s, peak RSS MB,
        CPU s, threads)."""
        threads = threads or NPROC
        args = [self.cli, "compute", graph, "--method", method, "--threads",
                str(threads), "--snapshot-out", out]
        with self.spans.span("compute.child"):
            t0 = time.monotonic()
            proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - t0
        err = proc.stderr.read().decode()
        proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            raise RuntimeError("compute failed: %s" % err.strip())
        for token in err.split():
            if token.startswith("simd="):
                self.env["simd_level"] = token[5:]
        return (wall, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime, threads)

    def start_daemon(self, manifest):
        port_file = os.path.join(self.work, "port")
        mport_file = os.path.join(self.work, "mport")
        for f in (port_file, mport_file):
            if os.path.exists(f):
                os.remove(f)
        # The queue bound is raised so that a short stall of a shared host
        # shows up as latency, not as shed requests, at the fixed rates.
        args = [self.cli, "serve-daemon", "--manifest", manifest,
                "--max-queue", "8192", "--port", "0", "--port-file", port_file,
                "--metrics-port", "0", "--metrics-port-file", mport_file]
        if not self.cfg["watch"]:
            args.append("--no-watch")
        log_file = open(os.path.join(self.work, "daemon.log"), "a")
        proc = subprocess.Popen(args, stdout=log_file, stderr=log_file)
        log_file.close()
        self.daemon = proc
        deadline = time.monotonic() + 120
        while not (os.path.exists(mport_file)
                   and os.path.getsize(mport_file) > 0):
            if proc.poll() is not None:
                raise RuntimeError("serve-daemon exited during start")
            if time.monotonic() > deadline:
                raise RuntimeError("serve-daemon did not start")
            time.sleep(0.005)
        with open(port_file) as f:
            self.port = int(f.read())
        with open(mport_file) as f:
            self.mport = int(f.read())

    def stop_daemon(self):
        """SIGTERM (graceful drain) and reap; returns peak RSS in MB."""
        proc, self.daemon = self.daemon, None
        if proc is None:
            return 0.0
        proc.send_signal(signal.SIGTERM)
        try:
            _, _, usage = wait4_timeout(proc, 20)
        except TimeoutError:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
        proc.returncode = 0
        return usage.ru_maxrss / 1024.0

    def daemon_cpu_s(self):
        with open("/proc/%d/stat" % self.daemon.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def reloads_applied(self):
        """srpp_reloads_total{outcome="applied"}, read without parsing
        the whole exposition (polled while a swap is in flight)."""
        m = RELOADS_APPLIED.search(self.metrics_text())
        return float(m.group(1)) if m else 0.0

    def metrics_text(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.mport, timeout=10)
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            body = resp.read().decode()
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError("/metrics answered %d" % resp.status)
        return body

    def scrape(self):
        return stats.parse_exposition(self.metrics_text())

    # --------------------------------------------------------------- setup
    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def setup_once(self):
        """Generates the graphs, builds the snapshots with compute
        children and starts the daemon on them. Returns the compute
        samples."""
        builds = []
        for g in sorted({t["graph"] for t in self.cfg["tenants"]}):
            q, a, c, s = GRAPHS[g]
            with self.spans.span("synth.generate"):
                r = self.run_tool(["gen", "--queries", str(q), "--ads", str(a),
                                   "--categories", str(c), "--subtopics",
                                   str(s), "--seed", str(GRAPH_SEED), "--out",
                                   self.path(g + ".tsv"), "--labels",
                                   self.path(g + ".queries")])
            self.layer.setdefault("synth.generate_s", []).append(
                r["generate_s"])
            self.graph_sizes[g] = (int(r["queries"]), int(r["edges"]))
        lines = ["manifest-version 1"]
        for t in self.cfg["tenants"]:
            graph = self.path(t["graph"] + ".tsv")
            lines += ["tenant " + t["name"], "  graph " + graph]
            if t.get("on_demand"):
                lines.append("  scoring on-demand")
                continue
            snap = self.path("served", t["name"] + ".snap")
            builds.append(self.compute(graph, snap, t["method"]))
            if t.get("alternate"):
                builds.append(self.compute(
                    graph, self.path(t["name"] + ".alt.snap"), t["alternate"]))
                shutil.copyfile(snap, self.path(t["name"] + ".main.snap"))
            lines.append("  snapshot " + snap)
        manifest = self.path("manifest.txt")
        with open(manifest, "w") as f:
            f.write("\n".join(lines) + "\n")
        with self.spans.span("serve.daemon_start"):
            self.start_daemon(manifest)
        return builds

    def setup_and_serve(self):
        """Sets up SETUP_REPEATS times from nothing, and serves one period
        of the timed window on each set-up's daemon, so the window is
        spread over the whole run. Returns the median setup time, the
        build samples, the periods' results and the daemons' median peak
        RSS."""
        times, builds, periods, rss = [], [], [], []
        self.build_times = []
        self.pieces = {"light": [], "busy": [], "ladder": []}
        self.reloads = []
        for _ in range(SETUP_REPEATS):
            if os.path.exists(self.work):
                shutil.rmtree(self.work)
            os.makedirs(self.path("served"))
            self.graph_sizes = {}
            with self.spans.span("setup"):
                t0 = time.monotonic()
                samples = self.setup_once()
                times.append(time.monotonic() - t0)
            builds += samples
            self.build_times.append(sum(b[0] for b in samples))
            log("setup %.3f s, builds %s" % (times[-1], " ".join(
                "%.3f/%.3f" % (b[0], b[2]) for b in samples)))
            periods.append(self.serve_period(self.seconds / SETUP_REPEATS))
            rss.append(self.stop_daemon())
        return stats.median(times), builds, periods, stats.median(rss)

    # ------------------------------------------------------------ serving
    def targets(self):
        out = []
        for tenant, share, zipf in self.cfg["targets"]:
            graph = next(t["graph"] for t in self.cfg["tenants"]
                         if t["name"] == tenant)
            out.append((tenant, self.popularity_file(graph), share, zipf))
        return out

    def popularity_file(self, graph):
        """The graph's clicked queries in a seeded popularity order."""
        path = self.path(graph + ".popular")
        if not os.path.exists(path):
            with open(self.path(graph + ".queries")) as f:
                queries = f.read().splitlines()
            order = list(range(len(queries)))
            seeded_shuffle(order, self.seed)
            with open(path, "w") as f:
                f.write("\n".join(queries[i] for i in order) + "\n")
        return path

    def drive(self, rate, seconds, tag):
        """One open-loop generator run at `rate`, bracketed by /metrics
        scrapes. Returns the slice: records, counter deltas, CPU."""
        out = self.path("records.bin")
        args = ["openloop", "--port", str(self.port), "--rate", str(rate),
                "--seconds", "%.3f" % seconds, "--connections",
                str(CONNECTIONS), "--seed",
                str(self.seed * 1000 + self.slices), "--out", out]
        for tenant, path, share, zipf in self.targets():
            args += ["--target", "%s:%s:%g:%g" % (tenant, path, share, zipf)]
        self.slices += 1
        before = self.scrape()
        cpu0 = self.daemon_cpu_s()
        with self.spans.span("loadgen." + tag) as sid:
            gen = self.run_tool(args)
        cpu1 = self.daemon_cpu_s()
        after = self.scrape()
        with open(out, "rb") as f:
            records = stats.read_records(f.read())
        os.remove(out)
        if tag in ("light", "busy"):
            self.spans.add_requests(records, sid)
        piece = {"records": records, "seconds": seconds,
                 "delta": stats.diff(before, after),
                 "daemon_cpu_s": cpu1 - cpu0, "gen_cpu_s": gen["cpu_s"]}
        if tag == "ladder":
            self.pieces["ladder"].append(piece)
        return piece

    def summarize(self, tag, rate, pieces):
        """Pools slices run at one rate into a phase summary."""
        records = [r for p in pieces for r in p["records"]]
        phase = stats.summarize_open_loop(
            records, rate, sum(p["seconds"] for p in pieces))
        delta = {}
        for p in pieces:
            delta = stats.add(delta, p["delta"])
        # The CPU readings sit inside the scrapes around each slice, so the
        # served-requests delta counts every request that CPU paid for,
        # the generator's unrecorded warm-up included.
        served = stats.metric_sum(delta, "srpp_served_requests_total")
        daemon_cpu_s = sum(p["daemon_cpu_s"] for p in pieces)
        phase.update(tag=tag, records=records, delta=delta,
                     cpu_us_per_request=daemon_cpu_s / max(served, 1) * 1e6,
                     gen_cpu_s=sum(p["gen_cpu_s"] for p in pieces))
        codes = {}
        for rec in records:
            if rec[5]:
                codes[rec[5]] = codes.get(rec[5], 0) + 1
        log("  %-6s rate %6d: p50 %8.1f us  p99 %9.1f us  "
            "pooled p99 %9.1f us  lag p99 %.1f us  daemon cpu %.1f us/req  "
            "failed %s"
            % (tag, rate, phase["p50_us"], phase["p99_us"],
               phase["pooled_p99_us"], phase["lag_p99_us"],
               phase["cpu_us_per_request"], codes or 0))
        return phase

    def serve_period(self, seconds):
        """One serving period on the current daemon: light and busy slices
        in turn, then the ladder until a rate misses the limit. Returns
        the period's light and busy summaries and capacity estimate."""
        cfg = self.cfg
        limit = cfg["p99_limit_us"]
        swapper = Swapper(self) if cfg.get("swap_every_s") else None
        if swapper:
            swapper.start()
        try:
            # Untimed warm-up at the light rate: a fresh daemon's caches
            # (the row cache of an on-demand tenant included) fill first.
            self.drive(cfg["light"], WARMUP_S, "warmup")
            slice_s = 0.5 * seconds / (2 * SLICES)
            for _ in range(SLICES):
                for tag in ("light", "busy"):
                    # At least one p99 window per slice.
                    self.pieces[tag].append(self.drive(
                        cfg[tag], max(slice_s, stats.WINDOW / cfg[tag]), tag))
            rungs = [self.summarize(tag, cfg[tag], self.pieces[tag][-SLICES:])
                     for tag in ("light", "busy")]
            rung_s = 0.5 * seconds / len(cfg["ladder"])
            while stats.meets_slo(rungs[-1], limit) and \
                    len(rungs) < 2 + len(cfg["ladder"]):
                rate = cfg["ladder"][len(rungs) - 2]
                rungs.append(self.summarize("ladder", rate, [self.drive(
                    rate, max(rung_s, 3 * stats.WINDOW / rate), "ladder")]))
        finally:
            if swapper:
                swapper.stop()
        if swapper:
            self.reloads += swapper.samples
        capacity = stats.slo_capacity(rungs, limit)
        log("  capacity estimate %.0f/s" % capacity)
        return {"capacity": capacity, "light": rungs[0], "busy": rungs[1]}

    # ------------------------------------------------------------- checks
    def replay_jobs(self):
        """One reference replay per (tenant, snapshot generation): a
        callable returning (target index, digests)."""
        streams = {}
        for rec in self.records():
            streams.setdefault(rec[6], []).append(rec[4])
        jobs = []
        for index, (tenant, path, _share, _zipf) in enumerate(self.targets()):
            t = next(t for t in self.cfg["tenants"] if t["name"] == tenant)
            stream = self.path("stream-%s.txt" % tenant)
            with open(stream, "w") as f:
                f.write("".join("%d\n" % q
                                for q in streams.get(index, [])[:20000]))
            if t.get("on_demand"):
                sources = [["--on-demand"]]
            elif t.get("alternate"):
                sources = [["--snapshot", self.path(tenant + ".main.snap")],
                           ["--snapshot", self.path(tenant + ".alt.snap")]]
            else:
                sources = [["--snapshot",
                            self.path("served", tenant + ".snap")]]
            for j, source in enumerate(sources):
                tag = "replay-%s-%d" % (tenant, j)
                out = self.path(tag + ".digests")
                args = ["replay", "--graph", self.path(t["graph"] + ".tsv"),
                        "--queries", path, "--digests", out,
                        "--stream", stream, "--batch",
                        str(max(1, round(self.batch_mean)))] + source

                def job(args=args, tag=tag, out=out, index=index):
                    result = self.run_tool(args, span_tag=tag)
                    with open(out) as f:
                        return index, result, [int(x, 16)
                                               for x in f.read().split()]

                jobs.append(job)
        return jobs

    def check_replies(self, replays):
        """Every ok reply must equal the digest of an in-process
        RewriteService answer for its query, from one snapshot
        generation (either one, for a swapped tenant)."""
        allowed = {}
        for index, result, digests in replays:
            allowed.setdefault(index, []).append(digests)
            for key, value in result.items():
                self.layer.setdefault(key, []).append(value)
        checked = 0
        for rec in self.records():
            if rec[2] < 0 or rec[5] != 0:
                continue
            if not any(d[rec[4]] == rec[3] for d in allowed[rec[6]]):
                raise CheckFailed(
                    "reply for query %d of target %d matches no reference "
                    "generation" % (rec[4], rec[6]))
            checked += 1
        return checked

    def records(self):
        for pieces in self.pieces.values():
            for piece in pieces:
                yield from piece["records"]

    def check_build(self, graph, snap):
        """--threads 1 must write the same bytes as --threads nproc."""
        one = self.path("threads1.snap")
        wall, _rss, _cpu, _t = self.compute(graph, one, "weighted", 1)
        with open(one, "rb") as a, open(snap, "rb") as b:
            if a.read() != b.read():
                raise CheckFailed("--threads 1 and --threads %d snapshots "
                                  "differ" % NPROC)
        return wall

    # ----------------------------------------------------------------- run
    def run(self):
        cfg = self.cfg
        metrics = {}
        os.makedirs(self.work, exist_ok=True)
        setup_s, builds, periods, daemon_rss = self.setup_and_serve()
        light = self.summarize("light", cfg["light"], self.pieces["light"])
        busy = self.summarize("busy", cfg["busy"], self.pieces["busy"])
        # Light and busy must not fail. A ladder rate may end in shed
        # requests: that is how the daemon answers a rate past its
        # capacity, and it is what stops the climb.
        self.attempted += sum(len(piece["records"]) for pieces
                              in self.pieces.values() for piece in pieces)
        self.failed += light["failed"] + busy["failed"]
        build_graph = self.path(cfg["build_graph"] + ".tsv")
        tenant = next(t for t in cfg["tenants"]
                      if t["graph"] == cfg["build_graph"])
        build_snap = self.path(tenant["name"] + ".main.snap"
                               if tenant.get("alternate")
                               else os.path.join("served",
                                                 tenant["name"] + ".snap"))
        self.batch_mean = self.batch_size(busy)
        # The checks are not timed; untraced runs overlap them. Traced runs
        # keep them apart, since the replays time layers.
        jobs = [lambda: self.check_build(build_graph, build_snap)]
        jobs += self.replay_jobs()
        if self.trace:
            results = [job() for job in jobs]
        else:
            with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
                results = [f.result()
                           for f in [pool.submit(job) for job in jobs]]
        build_1t = results[0]
        checked = self.check_replies(results[1:])
        log("checked %d replies against the in-process reference" % checked)

        metrics["setup_s"] = setup_s
        # The best set-up: contention from a shared host only slows a build.
        metrics["build_s"] = min(self.build_times)
        metrics["rss_peak_mb"] = max(daemon_rss,
                                     stats.median([b[1] for b in builds]))
        metrics["serve_cpu_us"] = busy["cpu_us_per_request"]
        # Interference from a shared host only ever slows the program, so
        # each latency figure is the best of the periods.
        self.latency = {"serve.%s.%s_us" % (tag, q):
                        min(p[tag][q + "_us"] for p in periods)
                        for tag in ("light", "busy") for q in ("p50", "p99")}
        self.latency["serve.max_qps_slo"] = max(p["capacity"]
                                                for p in periods)
        for name, value in self.latency.items():
            log("  %-22s %12.6g %s" % (name, value, PER_LAYER[name]))
        for name, value in metrics.items():
            log("  %-14s %12.6g %s" % (name, value, END_TO_END[name]))
        if not self.trace:
            return metrics
        return self.layers(builds, build_graph, build_1t, light, busy,
                           daemon_rss)

    @staticmethod
    def batch_size(phase):
        batches = stats.metric_sum(phase["delta"], "srpp_batches_total")
        served = stats.metric_sum(phase["delta"],
                                  "srpp_served_requests_total")
        return served / batches if batches else 0.0

    def layers(self, builds, build_graph, build_1t, light, busy,
               daemon_rss):
        """Per-layer figures: span self times of the traced offline probe,
        the reference replays, the daemon's /metrics deltas and the
        generator's own accounting."""
        m = {}
        # An untraced compute child right after the probe is the reference
        # for the tracing overhead: two runs of the same moment.
        with self.spans.span("offline.probe"):
            off = self.run_tool(["offline", build_graph, "--threads",
                                 str(NPROC), "--out",
                                 self.path("probe.snap")],
                                span_tag="offline")
        untraced = self.compute(build_graph, self.path("untraced.snap"))[0]
        selfs = self.spans.self_times("offline:")
        compute_layers = ["graph.load", "core.engine_run", "core.export",
                          "core.snapshot_save"]
        m["trace.untraced_build_s"] = untraced
        m["trace.coverage"] = sum(selfs[n] for n in compute_layers) / untraced
        m["trace.overhead"] = self.spans.duration("offline.compute") \
            / untraced - 1
        m["synth.generate_s"] = stats.median(self.layer["synth.generate_s"])
        m["graph.load_s"] = selfs["graph.load"]
        for name in ["core.engine_run", "core.export", "core.snapshot_save",
                     "core.engine_run_warm", "core.engine_run_1t"]:
            m[name + "_s"] = selfs[name]
        m["core.thread_speedup"] = (selfs["core.engine_run_1t"]
                                    / selfs["core.engine_run_warm"])
        m["core.parallel_efficiency"] = stats.median(
            [cpu / (wall * threads) for wall, _rss, cpu, threads in builds])
        for name in ["core.rescored_pairs", "core.reused_pairs",
                     "core.query_pairs", "core.snapshot_bytes"]:
            m[name] = off[name]
        m["core.build_1t_s"] = build_1t
        m["core.compute_rss_mb"] = stats.median([b[1] for b in builds])
        m["serve.daemon_rss_mb"] = daemon_rss

        def first(key):
            # 0 when no replay of this workload calls the layer.
            return self.layer[key][0] if key in self.layer else 0.0

        for key in ["core.snapshot_load_s", "core.linearized_prepare_s",
                    "core.linearized_row_us", "rewrite.service_build_s",
                    "rewrite.topk_us", "rewrite.topk_batch_us_per_query",
                    "serve.protocol_ns"]:
            m[key] = first(key)

        pieces = [p for ps in self.pieces.values() for p in ps]
        window = {}
        for piece in pieces:
            window = stats.add(window, piece["delta"])

        def delta(name, **labels):
            return stats.metric_sum(window, name, **labels)

        for phase, tag in ((light, "light"), (busy, "busy")):
            means, shares, in_daemon = stats.stage_means(phase["delta"])
            for stage in stats.STAGES:
                m["serve.%s.stage.%s_us" % (tag, stage)] = means[stage]
                m["serve.%s.stage.%s.share" % (tag, stage)] = shares[stage]
            m["serve.%s.client_mean_us" % tag] = phase["mean_us"]
            m["serve.%s.in_daemon_us" % tag] = in_daemon
            m["serve.%s.outside_us" % tag] = phase["mean_us"] - in_daemon
        m["serve.batch_size_mean"] = self.batch_mean
        m.update(self.latency)
        m["serve.shed"] = delta("srpp_requests_total", code="shed")
        m["serve.rate_limited"] = delta("srpp_requests_total",
                                        code="rate_limited")
        m["serve.cold_requests"] = delta("srpp_cold_requests_total")
        m["serve.reloads_applied"] = delta("srpp_reloads_total",
                                           outcome="applied")
        m["serve.reloads_failed"] = delta("srpp_reloads_total",
                                          outcome="failed")
        m["serve.reload_s"] = (stats.median(self.reloads)
                               if self.reloads else 0.0)
        hits = delta("srpp_row_cache_hits_total")
        misses = delta("srpp_row_cache_misses_total")
        m["rewrite.row_cache_lookups"] = hits + misses
        m["rewrite.row_cache_hit_ratio"] = (hits / (hits + misses)
                                            if hits + misses else 0.0)
        m["rewrite.rows_computed"] = delta("srpp_rows_computed_total")
        m["loadgen.send_lag_p99_us"] = max(light["lag_p99_us"],
                                           busy["lag_p99_us"])
        m["loadgen.cpu_s"] = sum(p["gen_cpu_s"] for p in pieces)
        m["loadgen.requests"] = sum(len(p["records"]) for p in pieces)
        os.makedirs(TRACES, exist_ok=True)
        spans_path = os.path.join(TRACES, "%s-seed%d.tsv"
                                  % (self.name, self.seed))
        self.spans.write(spans_path)
        log("spans written to %s" % spans_path)
        return m


class Swapper(threading.Thread):
    """Replaces a tenant's snapshot file by rename every swap_every_s
    seconds, alternating two builds, and times each swap from the rename
    to srpp_reloads_total{outcome="applied"} advancing."""

    def __init__(self, bench):
        super().__init__(daemon=True)
        self.bench = bench
        self.stop_event = threading.Event()
        self.samples = []
        self.error = None
        tenant = next(t for t in bench.cfg["tenants"] if t.get("alternate"))
        self.served = bench.path("served", tenant["name"] + ".snap")
        self.sources = [bench.path(tenant["name"] + ".alt.snap"),
                        bench.path(tenant["name"] + ".main.snap")]

    def run(self):
        i = 0
        try:
            while not self.stop_event.wait(self.bench.cfg["swap_every_s"]):
                applied = self.bench.reloads_applied()
                staged = self.bench.path("staged.snap")
                shutil.copyfile(self.sources[i % 2], staged)
                t0 = time.monotonic()
                os.replace(staged, self.served)
                i += 1
                while time.monotonic() - t0 < 10:
                    if self.bench.reloads_applied() > applied:
                        self.samples.append(time.monotonic() - t0)
                        break
                    time.sleep(0.01)
        except Exception as exc:  # reported by stop()
            self.error = exc

    def stop(self):
        self.stop_event.set()
        self.join()
        if self.error:
            raise self.error


def wait4_timeout(proc, seconds):
    deadline = time.monotonic() + seconds
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return pid, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError
        time.sleep(0.01)


def seeded_shuffle(items, seed):
    """Fisher-Yates with a fixed 64-bit LCG, so the order does not depend
    on the Python version."""
    state = (seed * 6364136223846793005 + 1442695040888963407) % 2**64
    for i in range(len(items) - 1, 0, -1):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        j = (state >> 33) % (i + 1)
        items[i], items[j] = items[j], items[i]


def environment():
    env = {"nproc": NPROC, "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = "unknown"
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            env["cgroup_cpu_max"] = f.read().strip()
    except OSError:
        env["cgroup_cpu_max"] = "unavailable"
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    env["compiler"] = "%s %s" % (cache.get("CMAKE_CXX_COMPILER", "?"),
                                 compiler_version(cache))
    env["build_type"] = cache.get("CMAKE_BUILD_TYPE", "?")
    try:
        env["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        env["git_sha"] = "not a git checkout"
    return env


def compiler_version(cache):
    try:
        out = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                              "--version"], capture_output=True, text=True,
                             timeout=10).stdout
        return out.splitlines()[0] if out else "?"
    except (OSError, subprocess.SubprocessError):
        return "?"


def build():
    """Configures and builds the program and the helper from source."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: %s holds no simrankpp source tree" % ROOT)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(NPROC),
                      "--target", "perfbench_tool", "simrankpp_cli"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out,
                              timeout=840).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        import test_stats
        sys.exit(test_stats.main())
    if not args.workload:
        parser.error("--workload is required")
    build()
    bench = Bench(args.workload, args.seed, args.seconds, args.trace == 1)

    def on_signal(signum, _frame):
        raise KeyboardInterrupt("signal %d" % signum)

    signal.signal(signal.SIGTERM, on_signal)
    correct = True
    try:
        metrics = bench.run()
    except CheckFailed as exc:
        log("CHECK FAILED: %s" % exc)
        correct, metrics = False, {}
    finally:
        if bench.daemon is not None:
            bench.stop_daemon()
        shutil.rmtree(bench.work, ignore_errors=True)
        parent = os.path.dirname(bench.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    env = environment()
    env.update(bench.env)
    env["graphs"] = {g: {"clicked_queries": q, "edges": e}
                     for g, (q, e) in bench.graph_sizes.items()}
    print("environment: " + json.dumps(env, sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    if correct and set(metrics) != set(units):
        raise RuntimeError("metric set differs from the catalogue: %s"
                           % sorted(set(metrics) ^ set(units)))
    for name in units:
        if name in metrics:
            print("%-40s %14.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
