#!/usr/bin/env python3
"""Benchmark of the graph sketch stack: stream file -> answer, and
multi-tenant query-while-ingest.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1 [--smoke] [--save results.jsonl] [--flags "..."]

Run from the root of a checkout. The first run builds the harness and
gsketch_cli (Release) into .bench_build/. Inputs are generated from --seed
into .bench_work/ and removed when the run ends.

--trace 0 prints the end-to-end metrics, measured with tracing off. Every
measured process is a fresh child, so its peak RSS (ru_maxrss from wait4)
is its own. --trace 1 prints the per-layer metrics of traced runs, the
closure of their blocking-path spans and the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Every answer the system gives is one attempted
operation, checked against an exact reference computed from the generated
stream before any timing. A wrong answer or an error is a failed operation;
nothing is retried or dropped.

--smoke runs tiny inputs (for the benchmark's own tests); --flags replaces
a workload's ingest flags (used to attribute anomalies, see NOTES.md); its
identity records the flags, so compare.py never mixes the two.
"""

import argparse
import functools
import json
import os
import random
import re
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD, "perfbench_harness")
CLI = os.path.join(BUILD, "graphsketch", "gsketch_cli")

# Per-child wall-clock limit; a run that hits it fails instead of hanging.
CHILD_TIMEOUT_S = 120
# A traced run's blocking-path spans plus trace.unattributed_s must equal
# its wall time; a residual above this share of the wall, or above the
# floor for runs short enough that process start-up dominates, is flagged.
CLOSURE_TOLERANCE = 0.05
CLOSURE_FLOOR_S = 0.02
# Set-up is measured at least SETUP_MIN times and for at least SETUP_S
# seconds per run (at most SETUP_MAX times); the median is reported.
SETUP_MIN, SETUP_MAX, SETUP_S = 5, 25, 1.5

SERVE_FAMILIES = ["connectivity", "connectivity", "forest", "forest",
                  "bipartite", "bipartite", "kedge", "kedge"]

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "ingest-uniform": {
        "kind": "ingest", "profile": "uniform", "alg": "connectivity",
        "n": 8192, "tokens": 2_000_000,
        "flags": ["--threads", "3", "--gutter", "4096"],
        "smoke": {"n": 512, "tokens": 20_000},
    },
    "ingest-hotspot": {
        "kind": "ingest", "profile": "hotspot", "alg": "connectivity",
        "n": 1024, "tokens": 2_000_000,
        "flags": ["--threads", "3", "--gutter", "4096", "--delta"],
        "smoke": {"n": 256, "tokens": 40_000},
    },
    "serve-multitenant": {
        "kind": "serve", "profile": "multi", "n": 1024, "tokens": 300_000,
        "tenants": len(SERVE_FAMILIES), "queries_per_session": 26,
        "flags": ["--threads", "2"],
        "smoke": {"n": 128, "tokens": 16_000},
    },
}

# Metric names and units live in BENCHMARK.json, the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


# ----------------------------------------------------------------- stats --

def pct(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    v = sorted(values)
    if not v:
        return 0.0
    idx = q * (len(v) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (idx - lo)


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------- build --

def ensure_built():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(
                f"{need} not found next to perfbench/: run from a full "
                "checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "ab") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(["which", "ninja"], stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0:
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                raise BenchError(f"cmake configure failed; see {log_path}")
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench_harness",
               "gsketch_cli", "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise BenchError(f"build failed; see {log_path}")


# ---------------------------------------------------------------- children --

# The one child running now; a SIGTERM to the benchmark also stops it.
_RUNNING = []


def _terminate(signum, frame):
    for proc in _RUNNING:
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


class Child:
    def __init__(self, argv, out_path, cwd):
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd)
            _RUNNING.append(proc)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                _RUNNING.remove(proc)
            self.t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.wall = self.t_exit - self.t_spawn
        self.out_path = out_path
        if self.code != 0:
            with open(out_path + ".err", errors="replace") as f:
                err_text = f.read()[-2000:]
            raise BenchError(f"{' '.join(argv)} exited {self.code}: "
                             f"{err_text}")

    def stdout(self):
        with open(self.out_path, errors="replace") as f:
            return f.read()


def run_tool(argv, work, name):
    return Child(argv, os.path.join(work, name), work)


def load_report(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------------ checks --

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what)


def check_cli_answer(text, components, tally, what):
    want = (f"components: {components}\n"
            f"connected:  {'yes' if components == 1 else 'no'}\n")
    tally.check(text == want, f"{what}: got {text!r}, want {want!r}")


HEADER = re.compile(r"^(\S+)@(\d+|-) (.*?) =>(?: (.*))?$")


def parse_answers(text, labels):
    """Splits query-engine output into (label, pos, query, body) records."""
    records = []
    for line in text.split("\n"):
        m = HEADER.match(line)
        if m and m.group(1) in labels:
            records.append([m.group(1), m.group(2), m.group(3),
                            [m.group(4)] if m.group(4) is not None else []])
        elif records and line:
            records[-1][3].append(line)
    return records


def components_of(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def check_serve_answers(text, refs, n, labels, tally):
    """Checks one serve run's answers against the exact references."""
    expected = {}
    for key, want in refs:
        expected.setdefault(key, []).append(want)
    for label, pos, query, body in parse_answers(text, labels):
        key = (label, pos, query)
        wants = expected.get(key)
        if not wants:
            tally.check(False, f"unexpected answer {label}@{pos} {query}")
            continue
        want = wants.pop(0)
        what = f"{label}@{pos} {query}"
        if body and body[0].startswith("error:"):
            tally.check(False, f"{what}: {body[0]}")
            continue
        if query in ("witness", "forest"):
            comps, live = want
            edges = []
            for line in body:
                if line.startswith("#"):
                    continue
                parts = line.split()
                u, v = int(parts[0]), int(parts[1])
                edges.append((min(u, v), max(u, v)))
            ok = all(e in live for e in edges) and \
                components_of(n, edges) == comps
            if query == "forest":
                ok = ok and len(edges) == n - comps
            tally.check(ok, f"{what}: witness not live or wrong components")
        else:
            got = body[0] if body else ""
            tally.check(got == want, f"{what}: got {got!r}, want {want!r}")
    for key, wants in expected.items():
        for _ in wants:
            tally.check(False, f"no answer for {key[0]}@{key[1]} {key[2]}")


def load_serve_refs(path):
    refs = []
    with open(path) as f:
        for line in f:
            head, want = line.rstrip("\n").split(" => ", 1)
            label_pos, query = head.split(" ", 1)
            label, pos = label_pos.split("@")
            if want.startswith("components="):
                comps_part, live_part = want.split(" ", 1)
                live = set()
                for e in live_part[len("live="):].split(","):
                    if e:
                        u, v = e.split("-")
                        live.add((int(u), int(v)))
                want = (int(comps_part.split("=")[1]), live)
            refs.append(((label, pos, query), want))
    return refs


# --------------------------------------------------------------- workloads --

class Run:
    """One invocation: a workload at one seed, untraced or traced."""

    def __init__(self, name, args):
        self.name = name
        self.spec = dict(WORKLOADS[name])
        if args.smoke:
            self.spec.update(self.spec["smoke"])
        if args.flags is not None:
            self.spec["flags"] = shlex.split(args.flags)
        self.args = args
        self.seed = args.seed
        self.tally = Tally()
        self.work = os.path.join(WORK_ROOT, f"{name}-{args.seed}-{os.getpid()}")
        # Traced runs need one round for per-layer numbers (no bounds).
        self.min_reps = 1 if args.smoke or args.trace else 3
        self.notes = []

    # Stops when another repetition would end past --seconds (at least
    # min_reps, at most 50).
    def more(self, start, durations):
        if len(durations) < self.min_reps:
            return True
        if len(durations) >= 50:
            return False
        return time.monotonic() - start + median(durations) <= \
            self.args.seconds

    def spread_note(self, **series):
        """Records each repetition series' range next to its median."""
        for name, values in series.items():
            self.notes.append(f"{name}: median {median(values):.6g}, min "
                              f"{min(values):.6g}, max {max(values):.6g}")

    def cli_argv(self, path):
        s = self.spec
        return [CLI, s["alg"], *s["flags"], str(s["n"]), path]

    def identity(self):
        s = self.spec
        threads = s["flags"][s["flags"].index("--threads") + 1] \
            if "--threads" in s["flags"] else "1"
        ident = {
            "workload": self.name, "n": s["n"], "updates": s["tokens"],
            "profile": s["profile"], "seed": self.seed, "workers": int(threads),
            "cli_flags": " ".join(s["flags"]), "build_type": "Release",
            "compiler": compiler_version(), "hardware_threads": os.cpu_count(),
            "host": host_tag(), "smoke": bool(self.args.smoke),
        }
        if s["kind"] == "ingest":
            ident["command"] = (f"gsketch_cli {s['alg']} {ident['cli_flags']} "
                                f"{s['n']} <gen {s['profile']} {s['n']} "
                                f"{s['tokens']} - {self.seed}>")
        else:
            ident["tenants"] = s["tenants"]
            ident["families"] = ",".join(SERVE_FAMILIES)
            ident["queries"] = s["tenants"] * s["queries_per_session"]
            ident["command"] = (f"serve multi {ident['cli_flags']} {s['n']} "
                                f"<gen multi --tenants {s['tenants']} "
                                f"{s['n']} {s['tokens']} - {self.seed}>")
        return ident

    # ------------------------------------------------------------ ingest --

    def ingest_inputs(self):
        s = self.spec
        stream = os.path.join(self.work, "stream.gskb")
        empty = os.path.join(self.work, "empty.gskb")
        run_tool([HARNESS, "gen", s["profile"], str(s["n"]), str(s["tokens"]),
                  str(self.seed), stream], self.work, "gen.out")
        run_tool([HARNESS, "gen", s["profile"], str(s["n"]), "0", "0", empty],
                 self.work, "gen-empty.out")
        ref = run_tool([HARNESS, "ref", stream], self.work, "ref.out").stdout()
        components = int(ref.split()[1])
        return stream, empty, components

    def cli_rep(self, path, components, what):
        child = run_tool(self.cli_argv(path), self.work, "cli.out")
        check_cli_answer(child.stdout(), components, self.tally, what)
        return child

    def replay_rep(self, stream, components, traced):
        s = self.spec
        report = os.path.join(self.work, "replay.json")
        argv = [HARNESS, "replay", s["alg"], *s["flags"], str(s["n"]), stream,
                "--report", report]
        if traced:
            argv.append("--trace")
        child = run_tool(argv, self.work, "replay.out")
        check_cli_answer(child.stdout(), components, self.tally,
                         "in-process replay")
        return child, load_report(report)

    def setup_samples(self, sample):
        values = []
        start = time.monotonic()
        while len(values) < SETUP_MIN or (
                len(values) < SETUP_MAX and
                time.monotonic() - start < SETUP_S):
            values.append(sample())
        return values

    def ingest_setup(self, empty):
        return median(self.setup_samples(
            lambda: self.cli_rep(empty, self.spec["n"], "empty stream").wall))

    def ingest_end_to_end(self):
        stream, empty, components = self.ingest_inputs()
        setup_s = self.ingest_setup(empty)
        rates, rss, latency, durations = [], [], [], []
        start = time.monotonic()
        while self.more(start, durations):
            t0 = time.monotonic()
            cli = self.cli_rep(stream, components, "cli")
            rates.append(self.spec["tokens"] / cli.wall)
            rss.append(cli.rss_mb)
            _, rep = self.replay_rep(stream, components, traced=False)
            v = rep["values"]
            latency.append((v["t_answer"] - v["t_last_push"]) * 1e3)
            durations.append(time.monotonic() - t0)
        self.notes.append(f"{len(durations)} repetitions; query latency is "
                          "the final answer's, last token pushed -> answer "
                          "written, one sample per repetition")
        self.spread_note(updates_per_s=rates, query_latency_ms=latency)
        return {
            "updates_per_s": median(rates),
            "query_latency_ms_p50": median(latency),
            "query_latency_ms_p95": pct(latency, 0.95),
            "peak_rss_mb": median(rss),
            "setup_s": setup_s,
        }

    def ingest_per_layer(self):
        stream, _, components = self.ingest_inputs()
        cli_walls, plain_walls, traced = [], [], []
        durations = []
        start = time.monotonic()
        while self.more(start, durations):
            t0 = time.monotonic()
            cli_walls.append(self.cli_rep(stream, components, "cli").wall)
            plain_walls.append(
                self.replay_rep(stream, components, traced=False)[0].wall)
            child, rep = self.replay_rep(stream, components, traced=True)
            traced.append(self.layer_values(child, rep))
            durations.append(time.monotonic() - t0)
        out = {k: median([t[k] for t in traced]) for k in traced[0]}
        out["cli.overhead_s"] = median(cli_walls) - median(plain_walls)
        out["trace.overhead_pct"] = \
            (median(t["trace.wall_s"] for t in traced) / median(plain_walls)
             - 1) * 100
        out["trace.closure_flagged"] = sum(t["_flagged"] for t in traced)
        return out

    # ------------------------------------------------------------- serve --

    def serve_inputs(self):
        s = self.spec
        trace = os.path.join(self.work, "trace.gskt")
        run_tool([CLI, "gen", "multi", "--tenants", str(s["tenants"]),
                  str(s["n"]), str(s["tokens"]), trace, str(self.seed)],
                 self.work, "gen.out")
        # Each session is queried at evenly spaced positions of its own
        # stream, the last at its end. Session k's positions are shifted by
        # k/tenants of the spacing, so independent tenants do not all query
        # at the same instant; `connected u v` picks are seeded.
        rng = random.Random(self.seed)
        lines = [f"open s{k} {fam}" for k, fam in enumerate(SERVE_FAMILIES)]
        tenants = s["tenants"]
        q = s["queries_per_session"]
        for k, fam in enumerate(SERVE_FAMILIES):
            total = s["tokens"] // tenants + (1 if k < s["tokens"] % tenants
                                               else 0)
            for j in range(1, q + 1):
                if fam == "bipartite":
                    text = "bipartite"
                elif fam == "kedge":
                    text = "witness"
                elif j % 2 == 0:
                    text = (f"connected {rng.randrange(s['n'])} "
                            f"{rng.randrange(s['n'])}")
                else:
                    text = "components" if fam == "connectivity" else "forest"
                pos = total if j == q else \
                    total * (j * tenants - tenants + k + 1) // (q * tenants)
                lines.append(f"@s{k} {pos} {text}")
        script = os.path.join(self.work, "script.txt")
        with open(script, "w") as f:
            f.write("\n".join(lines) + "\n")
        ref_path = os.path.join(self.work, "refs.txt")
        run_tool([HARNESS, "ref-serve", trace, script, ref_path], self.work,
                 "ref.out")
        return trace, script, load_serve_refs(ref_path)

    def serve_rep(self, trace, script, refs, traced=False, setup_only=False):
        s = self.spec
        report = os.path.join(self.work, "serve.json")
        answers = os.path.join(self.work, "answers.txt")
        argv = [HARNESS, "serve", *s["flags"], str(s["n"]), trace, script,
                "--answers", answers, "--report", report]
        if traced:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        child = run_tool(argv, self.work, "serve.out")
        rep = load_report(report)
        if not setup_only:
            with open(answers, errors="replace") as f:
                text = f.read()
            labels = {f"s{k}" for k in range(s["tenants"])}
            check_serve_answers(text, refs, s["n"], labels, self.tally)
            if len(rep["arrays"]["query.written"]) != \
                    len(rep["arrays"]["query.due"]):
                raise BenchError("answer writes do not pair with queries")
        return child, rep

    def serve_end_to_end(self):
        trace, script, refs = self.serve_inputs()
        setups = self.setup_samples(
            lambda: self.serve_rep(trace, script, refs, setup_only=True)[1]
            ["values"]["session.create_s"])
        rates, rss, latency, p95, durations = [], [], [], [], []
        start = time.monotonic()
        while self.more(start, durations):
            t0 = time.monotonic()
            child, rep = self.serve_rep(trace, script, refs)
            v, a = rep["values"], rep["arrays"]
            rates.append(self.spec["tokens"] / (v["t_answer"] - child.t_spawn))
            rss.append(child.rss_mb)
            lat = [(w - d) * 1e3 for w, d in zip(a["query.written"],
                                                 a["query.due"])]
            latency += lat
            p95.append(pct(lat, 0.95))
            setups.append(v["session.create_s"])
            durations.append(time.monotonic() - t0)
        self.notes.append(f"{len(durations)} repetitions of "
                          f"{len(refs)} queries")
        self.spread_note(updates_per_s=rates, query_latency_ms_p95=p95)
        # Latency percentiles pool every repetition's queries (at least 200
        # each), so p95 rests on at least 10 samples per repetition.
        return {
            "updates_per_s": median(rates),
            "query_latency_ms_p50": pct(latency, 0.5),
            "query_latency_ms_p95": pct(latency, 0.95),
            "peak_rss_mb": median(rss),
            "setup_s": median(setups),
        }

    def serve_per_layer(self):
        trace, script, refs = self.serve_inputs()
        plain_walls, traced, durations = [], [], []
        start = time.monotonic()
        while self.more(start, durations):
            t0 = time.monotonic()
            plain_walls.append(self.serve_rep(trace, script, refs)[0].wall)
            child, rep = self.serve_rep(trace, script, refs, traced=True)
            traced.append(self.layer_values(child, rep))
            durations.append(time.monotonic() - t0)
        out = {k: median([t[k] for t in traced]) for k in traced[0]}
        out["cli.overhead_s"] = 0.0
        out["trace.overhead_pct"] = \
            (median(t["trace.wall_s"] for t in traced) / median(plain_walls)
             - 1) * 100
        out["trace.closure_flagged"] = sum(t["_flagged"] for t in traced)
        return out

    # ------------------------------------------------------------ layers --

    def layer_values(self, child, rep):
        """Per-layer numbers of one traced child, plus its closure."""
        v, a = rep["values"], rep["arrays"]
        out = {name: 0.0 for name, _ in PER_LAYER}
        for name in out:
            if name in v:
                out[name] = v[name]
        # Closure: the blocking-path spans never overlap, so each one's self
        # time is its duration; what they leave of the wall is unattributed
        # (process start, argument parsing, report writing, exit).
        spans = rep["spans"]
        covered = sum(end - start for _, _, start, end in spans)
        wall = child.wall
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - covered
        flagged = abs(wall - covered) > max(CLOSURE_TOLERANCE * wall,
                                            CLOSURE_FLOOR_S)
        out["_flagged"] = 1 if flagged else 0
        by_layer = {}
        for _, layer, start, end in spans:
            by_layer[layer] = by_layer.get(layer, 0.0) + end - start
        self.closure = {"wall_s": wall, "self_s_by_layer": by_layer,
                        "unattributed_s": wall - covered,
                        "tolerance": CLOSURE_TOLERANCE,
                        "floor_s": CLOSURE_FLOOR_S, "flagged": flagged}
        if self.spec["kind"] == "ingest":
            answer_ms = sum(e - s for n, _, s, e in spans if n == "answer") * 1e3
            out["query.decode_ms_p50"] = answer_ms
            out["query.decode_ms_p95"] = answer_ms
            out[f"query.decode_ms.{self.spec['alg']}"] = answer_ms
            return out
        # Serve: the query engine answers in submission order on one thread,
        # so a query's decode starts when it was submitted or when the
        # previous answer was written, whichever is later.
        written, submit = a["query.written"], a["query.submit"]
        decode, wait = [], []
        prev = 0.0
        for w, sub in zip(written, submit):
            begin = max(sub, prev)
            decode.append((w - begin) * 1e3)
            wait.append((begin - sub) * 1e3)
            prev = w
        out["query.decode_ms_p50"] = pct(decode, 0.5)
        out["query.decode_ms_p95"] = pct(decode, 0.95)
        out["query.queue_wait_ms_p95"] = pct(wait, 0.95)
        names = {int(idx): k[len("family."):] for k, idx in v.items()
                 if k.startswith("family.")}
        for idx, fam in names.items():
            out[f"query.decode_ms.{fam}"] = median(
                [d for d, f in zip(decode, a["query.family"]) if f == idx])
        drains, publishes = a["snapshot.drain_ms"], a["snapshot.publish_ms"]
        out["snapshot.count"] = len(drains)
        out["snapshot.drain_ms_p50"] = pct(drains, 0.5)
        out["snapshot.drain_ms_p95"] = pct(drains, 0.95)
        out["snapshot.publish_ms_p50"] = pct(publishes, 0.5)
        out["snapshot.publish_ms_p95"] = pct(publishes, 0.95)
        return out

    # -------------------------------------------------------------- main --

    def execute(self):
        os.makedirs(self.work, exist_ok=True)
        cpu_before = cpu_times()
        try:
            kind = self.spec["kind"]
            if self.args.trace:
                values = getattr(self, f"{kind}_per_layer")()
                units = PER_LAYER
            else:
                values = getattr(self, f"{kind}_end_to_end")()
                units = END_TO_END
        finally:
            for name in os.listdir(self.work):
                os.remove(os.path.join(self.work, name))
            os.rmdir(self.work)
        self.steal_pct = steal_pct(cpu_before, cpu_times())
        if self.steal_pct is not None:
            self.notes.append(f"host steal during the run: "
                              f"{self.steal_pct:.2f}% of CPU time")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in units}
        return {"correct": self.tally.failed == 0,
                "attempted": self.tally.attempted,
                "failed": self.tally.failed, "metrics": metrics}


def cpu_times():
    """The aggregate `cpu` line of /proc/stat, or None where it is absent."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests (a shared host
    slows every metric at once when this rises)."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return 100.0 * delta[7] / total if total > 0 else None


@functools.lru_cache(maxsize=None)
def compiler_version():
    out = subprocess.run([HARNESS, "version"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def host_tag():
    model = "unknown-cpu"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model} x{os.cpu_count()}"


def print_result(run, result):
    for name, m in result["metrics"].items():
        print(f"{run.name}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{run.name}  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for ex in run.tally.examples:
        print(f"{run.name}  FAILED: {ex}")
    for note in run.notes:
        print(f"{run.name}  note: {note}")
    if run.args.trace and getattr(run, "closure", None):
        c = run.closure
        status = "FLAGGED" if c["flagged"] else "ok"
        print(f"{run.name}  closure ({status}, tolerance "
              f"{c['tolerance']:.0%} of wall): " + json.dumps(c))
    print(f"{run.name}  identity: " + json.dumps(run.identity()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--flags", default=None)
    ap.add_argument("--save", default=None,
                    help="append identity + result as one JSON line")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        ensure_built()
        names = sorted(WORKLOADS) if args.workload == "all" else \
            [args.workload]
        results = []
        for name in names:
            run = Run(name, args)
            result = run.execute()
            print_result(run, result)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps({"identity": run.identity(),
                                        "trace": args.trace,
                                        "host_steal_pct": run.steal_pct,
                                        "result": result}) + "\n")
            results.append((name, result))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{k}": m for name, r in results
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
