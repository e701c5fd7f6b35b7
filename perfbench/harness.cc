// perfbench harness: the benchmark's own driver for the sketch stack.
//
// Subcommands (all paths are files the benchmark owns):
//   gen <profile> <n> <tokens> <seed> <out.gskb>
//       Writes the stream `gsketch_cli gen <profile> <n> <tokens> <out>
//       <seed>` writes, byte for byte, without the CLI's workload
//       statistics pass (which dominates `gen` time at millions of tokens).
//   ref <in.gskb>
//       Exact reference for a file -> answer run: the component count of
//       the final multigraph, by union-find over edges of nonzero weight.
//   ref-serve <trace.gskt> <script> <out>
//       Exact references for every scripted query of a multi-tenant serve
//       script, at the query's own per-session position (see run.py for
//       the line format).
//   replay <alg> <n> <in.gskb> [ingest flags] --report <json> [--trace]
//       In-process replay of `gsketch_cli <alg> [flags] <n> <in.gskb>`
//       through BinaryStreamReader and SketchDriver. With --trace it feeds
//       IngestPipeline directly, wraps the family's sink in a timing
//       decorator and records spans around every call into a layer.
//   serve <n> <trace.gskt> <script> [ingest flags] --answers <out>
//         --report <json> [--trace] [--setup-only]
//       Multi-tenant query-while-ingest over SessionManager/QueryEngine:
//       the `gsketch_cli serve multi` loop, with each query stamped when
//       its session's stream reaches the query's position and when its
//       answer line is written. With --trace it also keeps the spans of
//       the producer thread.
//
// Every timestamp in a report is CLOCK_MONOTONIC seconds (steady_clock),
// the clock Python's time.monotonic() reads, so run.py can measure from
// the instant it spawned the process.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/core/sync.h"
#include "src/driver/binary_stream.h"
#include "src/driver/ingest_pipeline.h"
#include "src/driver/sketch_driver.h"
#include "src/driver/snapshot.h"
#include "src/session/session_manager.h"
#include "src/workload/stream_generator.h"

namespace gsketch {
namespace {

using Clock = std::chrono::steady_clock;

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "harness: %s\n", why.c_str());
  return 1;
}

// ------------------------------------------------------------ reports --

/// Flat JSON report: named numbers, named number arrays, and (when
/// tracing) the spans of the blocking path. Kept in memory and written
/// once, when the command ends.
class Report {
 public:
  explicit Report(bool tracing) : tracing_(tracing) {}

  void Set(const std::string& key, double v) { values_[key] = v; }
  std::vector<double>& Array(const std::string& key) { return arrays_[key]; }

  /// A span on the producer (blocking) thread: `layer` is the layer whose
  /// public call the span wraps; spans never overlap, so self time is the
  /// span's duration.
  void Span(const char* name, const char* layer, double start, double end) {
    if (tracing_) spans_.push_back({name, layer, start, end});
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"values\": {");
    const char* sep = "";
    for (const auto& [k, v] : values_) {
      std::fprintf(f, "%s\"%s\": %.17g", sep, k.c_str(), v);
      sep = ", ";
    }
    std::fprintf(f, "}, \"arrays\": {");
    sep = "";
    for (const auto& [k, vs] : arrays_) {
      std::fprintf(f, "%s\"%s\": [", sep, k.c_str());
      for (size_t i = 0; i < vs.size(); ++i) {
        std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", vs[i]);
      }
      std::fprintf(f, "]");
      sep = ", ";
    }
    std::fprintf(f, "}, \"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::fprintf(f, "%s[\"%s\", \"%s\", %.17g, %.17g]", i == 0 ? "" : ", ",
                   s.name, s.layer, s.start, s.end);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct SpanRec {
    const char* name;
    const char* layer;
    double start;
    double end;
  };
  const bool tracing_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> arrays_;
  std::vector<SpanRec> spans_;
};

// ------------------------------------------------------------ options --

struct IngestFlags {
  uint32_t threads = 1;
  size_t batch = 4096;
  size_t gutter = 0;
  bool delta = false;
  bool trace = false;
  bool setup_only = false;
  std::string report;
  std::string answers;
};

/// Parses the gsketch_cli ingest flags this benchmark uses plus the
/// harness's own; positional arguments are returned in order.
bool ParseFlags(int argc, char** argv, int first, IngestFlags* f,
                std::vector<std::string>* pos) {
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "harness: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--threads" || a == "--batch" || a == "--gutter") {
      const char* v = value(a.c_str());
      if (v == nullptr) return false;
      unsigned long long x = std::strtoull(v, nullptr, 10);
      if (a == "--threads") f->threads = static_cast<uint32_t>(x);
      if (a == "--batch") f->batch = x;
      if (a == "--gutter") f->gutter = x;
    } else if (a == "--report" || a == "--answers") {
      const char* v = value(a.c_str());
      if (v == nullptr) return false;
      (a == "--report" ? f->report : f->answers) = v;
    } else if (a == "--delta") {
      f->delta = true;
    } else if (a == "--trace") {
      f->trace = true;
    } else if (a == "--setup-only") {
      f->setup_only = true;
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "harness: unknown flag %s\n", a.c_str());
      return false;
    } else {
      pos->push_back(a);
    }
  }
  return true;
}

// ----------------------------------------------------------------- DSU --

class Dsu {
 public:
  explicit Dsu(NodeId n) : parent_(n), size_(n, 1), parity_(n, 0) {
    for (NodeId i = 0; i < n; ++i) parent_[i] = i;
    components_ = n;
  }
  /// Root of v; *parity = colour of v relative to its root.
  NodeId Find(NodeId v, uint8_t* parity = nullptr) {
    uint8_t p = 0;
    while (parent_[v] != v) {
      p ^= parity_[v];
      v = parent_[v];
    }
    if (parity != nullptr) *parity = p;
    return v;
  }
  /// Joins u and v as differently coloured; returns false on an odd cycle.
  bool Union(NodeId u, NodeId v) {
    uint8_t pu = 0, pv = 0;
    NodeId ru = Find(u, &pu), rv = Find(v, &pv);
    if (ru == rv) return pu != pv;
    if (size_[ru] > size_[rv]) std::swap(ru, rv);  // union by size
    parent_[ru] = rv;
    size_[rv] += size_[ru];
    parity_[ru] = static_cast<uint8_t>(pu ^ pv ^ 1);
    --components_;
    return true;
  }
  size_t components() const { return components_; }

 private:
  std::vector<NodeId> parent_;
  std::vector<NodeId> size_;
  std::vector<uint8_t> parity_;  // colour relative to parent
  size_t components_;
};

uint64_t EdgeKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

// ---------------------------------------------------------------- gen --

int CmdGen(int argc, char** argv) {
  if (argc != 7) return Fail("usage: gen <profile> <n> <tokens> <seed> <out>");
  const WorkloadProfile* p = FindWorkloadProfile(argv[2]);
  if (p == nullptr) return Fail(std::string("unknown profile ") + argv[2]);
  NodeId n = static_cast<NodeId>(std::strtoul(argv[3], nullptr, 10));
  size_t tokens = std::strtoull(argv[4], nullptr, 10);
  uint64_t seed = std::strtoull(argv[5], nullptr, 10);
  DynamicGraphStream s =
      tokens == 0 ? DynamicGraphStream(n) : p->generate(n, tokens, seed);
  if (!WriteBinaryStream(argv[6], s)) {
    return Fail(std::string("cannot write ") + argv[6]);
  }
  return 0;
}

// ---------------------------------------------------------------- ref --

int CmdRef(int argc, char** argv) {
  if (argc != 3) return Fail("usage: ref <in.gskb>");
  BinaryStreamReader reader(argv[2]);
  if (!reader.ok()) return Fail(reader.error());
  // Sorting the tokens by edge groups each edge's deltas into one run.
  std::vector<std::pair<uint64_t, int64_t>> tokens;
  tokens.reserve(static_cast<size_t>(reader.num_updates()));
  std::vector<EdgeUpdate> batch;
  while (!reader.Done() && reader.ok()) {
    batch.clear();
    if (reader.ReadBatch(1 << 16, &batch) == 0) break;
    for (const auto& e : batch) {
      tokens.emplace_back(EdgeKey(e.u, e.v), e.delta);
    }
  }
  if (!reader.ok() || !reader.Done()) return Fail("short stream");
  std::sort(tokens.begin(), tokens.end());
  Dsu dsu(reader.nodes());
  for (size_t i = 0; i < tokens.size();) {
    const uint64_t key = tokens[i].first;
    int64_t m = 0;
    for (; i < tokens.size() && tokens[i].first == key; ++i) {
      m += tokens[i].second;
    }
    if (m != 0) dsu.Union(static_cast<NodeId>(key >> 32),
                          static_cast<NodeId>(key & 0xffffffffu));
  }
  std::printf("components %zu\n", dsu.components());
  return 0;
}

// ------------------------------------------------------- serve script --

struct ScriptQuery {
  uint64_t pos = 0;
  std::string text;
};

struct Script {
  std::vector<std::pair<std::string, std::string>> opens;  // name, alg
  std::vector<std::vector<ScriptQuery>> queries;  // per session, by pos
};

/// Reads the `gsketch_cli serve multi` script format: `open <name> <alg>`
/// and `@<name> <pos> <query>` lines.
bool LoadScript(const std::string& path, Script* s) {
  std::ifstream in(path);
  if (!in) return false;
  std::map<std::string, size_t> index;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string head;
    ss >> head;
    if (head == "open") {
      std::string name, alg;
      if (!(ss >> name >> alg)) return false;
      index[name] = s->opens.size();
      s->opens.emplace_back(name, alg);
      s->queries.emplace_back();
      continue;
    }
    if (head.size() < 2 || head[0] != '@') return false;
    auto it = index.find(head.substr(1));
    if (it == index.end()) return false;
    ScriptQuery q;
    if (!(ss >> q.pos)) return false;
    std::getline(ss, q.text);
    q.text.erase(0, q.text.find_first_not_of(' '));
    s->queries[it->second].push_back(std::move(q));
  }
  for (auto& qs : s->queries) {
    std::stable_sort(qs.begin(), qs.end(),
                     [](const ScriptQuery& a, const ScriptQuery& b) {
                       return a.pos < b.pos;
                     });
  }
  return !s->opens.empty();
}

/// Loads a whole GSKT trace into memory, as `gsketch_cli serve multi` does.
bool LoadTrace(TaggedStreamReader* reader, std::vector<TaggedUpdate>* trace) {
  if (!reader->ok()) return false;
  trace->reserve(static_cast<size_t>(reader->num_updates()));
  while (!reader->Done()) {
    if (reader->ReadBatch(1 << 14, trace) == 0) break;
  }
  return reader->ok() && reader->Done();
}

// ---------------------------------------------------------- ref-serve --

/// One line per scripted query, `<name>@<pos> <query> => <expected>`:
/// `components`, `connected u v` and `bipartite` carry the exact answer;
/// `witness` and `forest` carry `components=<c> live=<u>-<v>,...` (the
/// exact component count and the live edge set the answer must lie in).
int CmdRefServe(int argc, char** argv) {
  if (argc != 5) return Fail("usage: ref-serve <trace.gskt> <script> <out>");
  Script script;
  if (!LoadScript(argv[3], &script)) return Fail("bad script");
  TaggedStreamReader reader(argv[2]);
  std::vector<TaggedUpdate> trace;
  if (!LoadTrace(&reader, &trace)) return Fail("bad trace");
  const NodeId n = reader.nodes();
  const size_t tenants = script.opens.size();
  if (reader.tenants() != tenants) return Fail("tenant count mismatch");
  std::vector<std::vector<EdgeUpdate>> per(tenants);
  for (const auto& e : trace) per[e.tenant].push_back({e.u, e.v, e.delta});
  std::FILE* out = std::fopen(argv[4], "w");
  if (out == nullptr) return Fail("cannot write reference");
  for (size_t t = 0; t < tenants; ++t) {
    std::unordered_map<uint64_t, int64_t> mult;
    size_t next = 0;
    const auto& qs = script.queries[t];
    for (uint64_t pos = 0; pos <= per[t].size() && next < qs.size();
         ++pos) {
      if (pos > 0) {
        const EdgeUpdate& e = per[t][pos - 1];
        int64_t& m = mult[EdgeKey(e.u, e.v)];
        m += e.delta;
        if (m == 0) mult.erase(EdgeKey(e.u, e.v));
      }
      if (qs[next].pos != pos) continue;
      Dsu dsu(n);
      bool bipartite = true;
      for (const auto& [key, m] : mult) {
        bipartite &= dsu.Union(static_cast<NodeId>(key >> 32),
                               static_cast<NodeId>(key & 0xffffffffu));
      }
      for (; next < qs.size() && qs[next].pos == pos; ++next) {
        const std::string& q = qs[next].text;
        std::string expect;
        if (q == "components") {
          expect = std::to_string(dsu.components());
        } else if (q == "bipartite") {
          expect = bipartite ? "yes" : "no";
        } else if (q.rfind("connected ", 0) == 0) {
          unsigned u = 0, v = 0;
          if (std::sscanf(q.c_str(), "connected %u %u", &u, &v) != 2 ||
              u >= n || v >= n) {
            std::fclose(out);
            return Fail("bad query " + q);
          }
          expect = dsu.Find(u) == dsu.Find(v) ? "yes" : "no";
        } else if (q == "witness" || q == "forest") {
          expect = "components=" + std::to_string(dsu.components()) +
                   " live=";
          std::vector<uint64_t> keys;
          keys.reserve(mult.size());
          for (const auto& [key, m] : mult) keys.push_back(key);
          std::sort(keys.begin(), keys.end());
          for (size_t i = 0; i < keys.size(); ++i) {
            expect += (i == 0 ? "" : ",") + std::to_string(keys[i] >> 32) +
                      "-" + std::to_string(keys[i] & 0xffffffffu);
          }
        } else {
          std::fclose(out);
          return Fail("no reference for query " + q);
        }
        std::fprintf(out, "%s@%llu %s => %s\n", script.opens[t].first.c_str(),
                     static_cast<unsigned long long>(pos), q.c_str(),
                     expect.c_str());
      }
    }
  }
  return std::fclose(out) == 0 ? 0 : Fail("cannot write reference");
}

// ------------------------------------------------------- replay trace --

/// Per-worker counters of the timing decorator. Each worker thread owns
/// one slot (found once through a thread_local), so the hot path takes no
/// lock; the producer reads them only after the final drain.
struct WorkerTimes {
  double apply_s = 0;       // ApplyHalves + ApplyNode
  double accumulate_s = 0;  // AccumulateDelta
  double merge_s = 0;       // MergeDelta
  uint64_t items = 0;       // sink calls that finish a work item
  uint64_t halves = 0;      // halves handed to the sketch
  uint64_t node_calls = 0;  // ApplyNode calls
};

/// IngestSink decorator: times every call the pipeline's workers make into
/// the family's sink (the `sketch` layer) from outside the library.
class TimingSink final : public IngestSink {
 public:
  explicit TimingSink(IngestSink* inner) : inner_(inner) {}

  void ApplyHalves(const HalfUpdate* halves, size_t count) override {
    WorkerTimes& w = Local();
    double t0 = Now();
    inner_->ApplyHalves(halves, count);
    w.apply_s += Now() - t0;
    ++w.items;
    w.halves += count;
  }

  void ApplyNode(const NodeBatch& batch) override {
    WorkerTimes& w = Local();
    double t0 = Now();
    inner_->ApplyNode(batch);
    w.apply_s += Now() - t0;
    ++w.items;
    ++w.node_calls;
    w.halves += batch.halves;
  }

  size_t AccumulateDelta(const NodeBatch& batch,
                         std::vector<OneSparseCell>* scratch) const override {
    WorkerTimes& w = Local();
    double t0 = Now();
    size_t cells = inner_->AccumulateDelta(batch, scratch);
    w.accumulate_s += Now() - t0;
    if (cells > 0) w.halves += batch.halves;
    return cells;
  }

  void MergeDelta(NodeId endpoint, const OneSparseCell* scratch,
                  size_t cells) override {
    WorkerTimes& w = Local();
    double t0 = Now();
    inner_->MergeDelta(endpoint, scratch, cells);
    w.merge_s += Now() - t0;
    ++w.items;
  }

  /// Every worker's counters; call only after the pipeline drained.
  std::vector<WorkerTimes> Snapshot() const {
    MutexLock lock(mu_);
    std::vector<WorkerTimes> out;
    for (const auto& w : workers_) out.push_back(*w);
    return out;
  }

 private:
  WorkerTimes& Local() const {
    thread_local WorkerTimes* slot = nullptr;
    if (slot == nullptr) {
      MutexLock lock(mu_);
      workers_.push_back(std::make_unique<WorkerTimes>());
      slot = workers_.back().get();
    }
    return *slot;
  }

  IngestSink* inner_;
  mutable Mutex mu_;
  mutable std::vector<std::unique_ptr<WorkerTimes>> workers_
      GSKETCH_GUARDED_BY(mu_);
};

// -------------------------------------------------------------- replay --

int CmdReplay(int argc, char** argv) {
  IngestFlags f;
  std::vector<std::string> pos;
  if (!ParseFlags(argc, argv, 2, &f, &pos) || pos.size() != 3 ||
      f.report.empty()) {
    return Fail("usage: replay <alg> <n> <in.gskb> [flags] --report <json>");
  }
  const AlgInfo* info = FindAlg(pos[0]);
  if (info == nullptr) return Fail("unknown alg " + pos[0]);
  const NodeId n = static_cast<NodeId>(std::strtoul(pos[1].c_str(),
                                                    nullptr, 10));
  Report rep(f.trace);

  // Mirrors gsketch_cli's RunRegistered/IngestStreamRange: default family
  // options, sketch seed 1, non-sharded families on one worker.
  double t = Now();
  std::unique_ptr<LinearSketch> sk = info->make(n, AlgOptions{}, 1);
  rep.Span("sketch.make", "sketch", t, Now());
  rep.Set("sketch.bytes",
          static_cast<double>(sk->CellCount() * sizeof(OneSparseCell)));
  const uint32_t workers = sk->EndpointSharded() ? f.threads : 1;
  const size_t batch_size = f.batch < 1 ? 1 : f.batch;

  BinaryStreamReader reader(pos[2]);
  if (!reader.ok()) return Fail(reader.error());
  if (reader.nodes() != n) return Fail("stream n differs from <n>");
  std::vector<EdgeUpdate> batch;
  batch.reserve(batch_size);
  double t_last_push = 0;
  double t_answer = 0;

  if (!f.trace) {
    DriverOptions dopt;
    dopt.num_workers = workers;
    dopt.batch_size = f.batch;
    dopt.gutter_bytes = f.gutter;
    dopt.delta_mode = f.delta;
    SketchDriver<LinearSketch> driver(sk.get(), dopt);
    while (!reader.Done() && reader.ok()) {
      batch.clear();
      if (reader.ReadBatch(batch_size, &batch) == 0) break;
      for (const auto& e : batch) driver.Push(e.u, e.v, e.delta);
    }
    t_last_push = Now();
    driver.Drain();
    sk->PrintAnswer(stdout);
    std::fflush(stdout);
    t_answer = Now();
  } else {
    AlgIngestSink<LinearSketch> inner(sk.get());
    TimingSink sink(&inner);
    PipelineOptions popt;
    popt.num_workers = workers;
    popt.batch_size = f.batch;
    popt.delta_mode = f.delta;
    ChannelOptions copt;
    copt.gutter_bytes = f.gutter;
    copt.coalesce = sk->CoalesceSafe();
    t = Now();
    auto pipeline = std::make_unique<IngestPipeline>(popt);
    IngestPipeline::SessionId sid = pipeline->Attach(&sink, copt);
    double t_setup = Now();
    rep.Span("pipeline.start", "ingest_pipeline", t, t_setup);
    const double t_ingest = t_setup;
    double push_s = 0;
    double read_s = 0;
    for (;;) {
      double r0 = Now();
      batch.clear();
      size_t got = (!reader.Done() && reader.ok())
                       ? reader.ReadBatch(batch_size, &batch)
                       : 0;
      double r1 = Now();
      rep.Span("read", "binary_stream", r0, r1);
      read_s += r1 - r0;
      if (got == 0) break;
      for (const auto& e : batch) pipeline->Push(sid, e.u, e.v, e.delta);
      double p1 = Now();
      rep.Span("push", "ingest_pipeline", r1, p1);
      push_s += p1 - r1;
    }
    t_last_push = Now();
    pipeline->Drain(sid);
    double t_drained = Now();
    rep.Span("drain", "ingest_pipeline", t_last_push, t_drained);
    sk->PrintAnswer(stdout);
    std::fflush(stdout);
    t_answer = Now();
    rep.Span("answer", "query", t_drained, t_answer);

    const double ingest_wall = t_drained - t_ingest;
    const std::vector<WorkerTimes> ws = sink.Snapshot();
    double busy = 0, acc = 0, merge = 0;
    uint64_t items = 0, halves = 0, node_calls = 0;
    for (const auto& w : ws) {
      acc += w.accumulate_s;
      merge += w.merge_s;
      busy += w.apply_s + w.accumulate_s + w.merge_s;
      items += w.items;
      halves += w.halves;
      node_calls += w.node_calls;
    }
    const uint32_t nw = pipeline->num_workers();
    double max_applied = 0, sum_applied = 0;
    for (uint32_t w = 0; w < nw; ++w) {
      double a = static_cast<double>(pipeline->WorkerAppliedHalves(w));
      max_applied = std::max(max_applied, a);
      sum_applied += a;
    }
    rep.Set("ingest_pipeline.push_s", push_s);
    rep.Set("ingest_pipeline.drain_wait_s", t_drained - t_last_push);
    rep.Set("ingest_pipeline.batches", static_cast<double>(items));
    rep.Set("ingest_pipeline.worker_busy_frac",
            ingest_wall > 0 ? busy / (nw * ingest_wall) : 0);
    rep.Set("ingest_pipeline.worker_idle_s", nw * ingest_wall - busy);
    rep.Set("ingest_pipeline.worker_skew",
            sum_applied > 0 ? max_applied / (sum_applied / nw) : 0);
    rep.Set("sketch.apply_s", busy);
    rep.Set("sketch.apply_ns_per_half",
            halves > 0 ? busy * 1e9 / static_cast<double>(halves) : 0);
    rep.Set("sketch.delta_accumulate_s", acc);
    rep.Set("sketch.delta_merge_s", merge);
    rep.Set("sketch.locked_fallback_batches",
            f.delta ? static_cast<double>(node_calls) : 0);
    rep.Set("binary_stream.read_s", read_s);
    rep.Set("binary_stream.records",
            static_cast<double>(reader.num_updates()));
    if (const GutterSystem* g = pipeline->gutters(sid)) {
      const double in = 2.0 * static_cast<double>(reader.num_updates());
      const double coalesced = static_cast<double>(g->coalesced_halves());
      const double flushes = static_cast<double>(g->flushes());
      rep.Set("gutter.halves_in", in);
      rep.Set("gutter.flushes", flushes);
      rep.Set("gutter.entries_per_flush",
              flushes > 0 ? (in - coalesced) / flushes : 0);
      rep.Set("gutter.coalesce_ratio", in > 0 ? coalesced / in : 0);
    }
    double t_stop = Now();
    pipeline.reset();  // joins the workers, as SketchDriver's destructor does
    rep.Span("pipeline.stop", "ingest_pipeline", t_stop, Now());
  }
  t = Now();
  sk.reset();
  rep.Span("sketch.free", "sketch", t, Now());
  if (!reader.ok() || !reader.Done()) return Fail("short stream");
  rep.Set("t_last_push", t_last_push);
  rep.Set("t_answer", t_answer);
  return rep.Write(f.report) ? 0 : Fail("cannot write report");
}

// --------------------------------------------------------------- serve --

/// Captures the query engine's output: with a buffer larger than any
/// answer, each fflush the engine makes after an answer arrives here as
/// exactly one write, stamped when it lands.
struct AnswerSink {
  std::string text;
  std::vector<double> written;

  static ssize_t Write(void* cookie, const char* buf, size_t size) {
    auto* self = static_cast<AnswerSink*>(cookie);
    self->written.push_back(Now());
    self->text.append(buf, size);
    return static_cast<ssize_t>(size);
  }
};

int CmdServe(int argc, char** argv) {
  IngestFlags f;
  std::vector<std::string> pos;
  if (!ParseFlags(argc, argv, 2, &f, &pos) || pos.size() != 3 ||
      f.report.empty() || (f.answers.empty() && !f.setup_only)) {
    return Fail("usage: serve <n> <trace.gskt> <script> [flags] "
                "--answers <out> --report <json>");
  }
  const NodeId n = static_cast<NodeId>(std::strtoul(pos[0].c_str(),
                                                    nullptr, 10));
  Report rep(f.trace);
  Script script;
  if (!LoadScript(pos[2], &script)) return Fail("bad script " + pos[2]);
  const size_t tenants = script.opens.size();

  double t = Now();
  TaggedStreamReader reader(pos[1]);
  std::vector<TaggedUpdate> trace;
  if (!f.setup_only) {
    if (!LoadTrace(&reader, &trace)) return Fail("bad trace");
    if (reader.nodes() != n || reader.tenants() != tenants) {
      return Fail("trace n or tenant count differs from the script");
    }
  }
  rep.Span("trace.load", "binary_stream", t, Now());
  rep.Set("binary_stream.read_s", Now() - t);
  rep.Set("binary_stream.records", static_cast<double>(trace.size()));

  // Session set-up: the shared pool, then one session per tenant, with the
  // same configuration `gsketch_cli serve multi` gives each `open` line.
  const double t_create = Now();
  PipelineOptions popt;
  popt.num_workers = f.threads;
  popt.batch_size = f.batch;
  popt.delta_mode = f.delta;
  auto manager = std::make_unique<SessionManager>(popt);
  std::vector<SketchSession*> sessions(tenants, nullptr);
  std::vector<std::string> family(tenants);
  for (size_t k = 0; k < tenants; ++k) {
    const AlgInfo* info = FindAlg(script.opens[k].second);
    if (info == nullptr) return Fail("unknown alg " + script.opens[k].second);
    SessionConfig cfg;
    cfg.num_nodes = n;
    cfg.seed = 1;
    cfg.gutter_bytes = f.gutter;
    cfg.eager_connectivity = info->tag == AlgTag::kConnectivity ||
                             info->tag == AlgTag::kSpanningForest;
    std::string error;
    sessions[k] = manager->Create(script.opens[k].first, info->name, cfg,
                                  &error);
    if (sessions[k] == nullptr) return Fail("open: " + error);
    family[k] = info->name;
  }
  const double t_created = Now();
  rep.Span("session.create", "session", t_create, t_created);
  rep.Set("session.create_s", t_created - t_create);
  double cells = 0;
  for (SketchSession* s : sessions) {
    cells += static_cast<double>(s->sketch().CellCount());
  }
  rep.Set("sketch.bytes", cells * sizeof(OneSparseCell));
  if (f.setup_only) return rep.Write(f.report) ? 0 : Fail("cannot write");

  AnswerSink answers;
  cookie_io_functions_t io{};
  io.write = &AnswerSink::Write;
  std::FILE* out = fopencookie(&answers, "w", io);
  if (out == nullptr) return Fail("fopencookie failed");
  std::vector<char> buffer(1 << 24);
  setvbuf(out, buffer.data(), _IOFBF, buffer.size());

  std::vector<double>& q_due = rep.Array("query.due");
  std::vector<double>& q_submit = rep.Array("query.submit");
  std::vector<double>& q_family = rep.Array("query.family");
  std::vector<double>& drain_ms = rep.Array("snapshot.drain_ms");
  std::vector<double>& publish_ms = rep.Array("snapshot.publish_ms");
  std::vector<std::string> family_names;
  for (const auto& name : family) {
    if (std::find(family_names.begin(), family_names.end(), name) ==
        family_names.end()) {
      family_names.push_back(name);
    }
  }

  std::vector<uint64_t> pushed(tenants, 0);
  std::vector<size_t> qi(tenants, 0);
  double push_s = 0;
  double t_stream_done = 0;
  {
    QueryEngine engine(nullptr, out);
    double seg = Now();  // start of the current run of pushes
    for (const TaggedUpdate& e : trace) {
      const uint32_t k = e.tenant;
      sessions[k]->Push(e.u, e.v, e.delta);
      ++pushed[k];
      auto& qs = script.queries[k];
      if (qi[k] >= qs.size() || qs[qi[k]].pos != pushed[k]) continue;
      // Open loop in stream time: the query is due now, when its session's
      // stream reached its position, however far behind the engine is.
      const double due = Now();
      rep.Span("push", "session", seg, due);
      push_s += due - seg;
      SnapshotTiming timing;
      auto snap = sessions[k]->Publish(&timing);
      const double submitted = Now();
      const double published = submitted - timing.publish_ms / 1e3;
      rep.Span("drain", "snapshot", due, published);
      rep.Span("publish", "snapshot", published, submitted);
      drain_ms.push_back(timing.drain_ms);
      publish_ms.push_back(timing.publish_ms);
      const double fam = static_cast<double>(
          std::find(family_names.begin(), family_names.end(), family[k]) -
          family_names.begin());
      for (; qi[k] < qs.size() && qs[qi[k]].pos == pushed[k]; ++qi[k]) {
        q_due.push_back(due);
        q_submit.push_back(submitted);
        q_family.push_back(fam);
        engine.Submit(script.opens[k].first, qs[qi[k]].text, snap);
      }
      seg = Now();
      rep.Span("submit", "query", submitted, seg);
    }
    t_stream_done = Now();
    rep.Span("push", "session", seg, t_stream_done);
    push_s += t_stream_done - seg;
    engine.Finish();  // joins the engine thread: answers are all written
  }
  const double t_final =
      answers.written.empty() ? t_stream_done : answers.written.back();
  rep.Span("answer.tail", "query", t_stream_done, t_final);
  std::fclose(out);
  const IngestPipeline& pool = manager->pipeline();
  double max_applied = 0, sum_applied = 0;
  for (uint32_t w = 0; w < pool.num_workers(); ++w) {
    double a = static_cast<double>(pool.WorkerAppliedHalves(w));
    max_applied = std::max(max_applied, a);
    sum_applied += a;
  }
  rep.Set("ingest_pipeline.worker_skew",
          sum_applied > 0 ? max_applied / (sum_applied / pool.num_workers())
                          : 0);
  rep.Set("session.push_s", push_s);
  rep.Set("session.hosted_bytes",
          static_cast<double>(manager->TotalMemoryBytes()));
  rep.Set("t_answer", t_final);
  rep.Array("query.written") = answers.written;
  for (size_t i = 0; i < family_names.size(); ++i) {
    rep.Set("family." + family_names[i], static_cast<double>(i));
  }
  const double t_close = Now();
  manager.reset();
  rep.Span("session.close", "session", t_close, Now());

  std::FILE* af = std::fopen(f.answers.c_str(), "w");
  if (af == nullptr ||
      std::fwrite(answers.text.data(), 1, answers.text.size(), af) !=
          answers.text.size() ||
      std::fclose(af) != 0) {
    return Fail("cannot write answers");
  }
  return rep.Write(f.report) ? 0 : Fail("cannot write report");
}

}  // namespace
}  // namespace gsketch

int main(int argc, char** argv) {
  using namespace gsketch;
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "ref") return CmdRef(argc, argv);
  if (cmd == "ref-serve") return CmdRefServe(argc, argv);
  if (cmd == "replay") return CmdReplay(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "version") {
    std::printf("%s\n", __VERSION__);
    return 0;
  }
  std::fprintf(stderr,
               "usage: %s gen|ref|ref-serve|replay|serve|version ...\n",
               argv[0]);
  return 2;
}
