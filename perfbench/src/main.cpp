// perfbench — the repository's outside-in benchmark: shortest-path latency
// in-process and served by vicinityd, on a generated LiveJournal-profile
// index, with every answer checked.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --daemon PATH/vicinityd --work-dir DIR
//             [--scale-mult X] [--setup-reps N] [--corrupt-reference K]
//
// One run: set up (generate the graph, build, save, open or start the
// daemon, warm) --setup-reps times; then the measured phases, which share
// --seconds between them; then the verification. It prints one
// `metric NAME = VALUE UNIT (n=SAMPLES)` line per metric and, last, one JSON
// object: every end-to-end metric with --trace 0, every per-layer metric
// with --trace 1. perfbench/README.md defines each workload and metric.
//
// --scale-mult shrinks the graphs (self-test); --corrupt-reference K adds
// one hop to the first K reference answers, so the self-test can check
// that wrong answers are counted as failures.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/bfs.h"
#include "common.h"
#include "core/dynamic.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "daemon.h"
#include "gen/profiles.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "net/client.h"
#include "util/rng.h"
#include "vicinity_index.h"
#include "wire.h"

namespace perfbench {
namespace {

namespace core = vicinity::core;
namespace graph = vicinity::graph;
namespace net = vicinity::net;

/// How a round's read time is shared between its phases. The rest of the
/// round goes to the unloaded update slice, which has a fixed count.
struct Shares {
  double oracle, throughput, lone, served;
};

struct Workload {
  const char* name;
  double scale;          ///< fraction of the paper's dataset size
  bool served;           ///< through vicinityd instead of in-process
  double zipf;           ///< pair skew over degree rank; 0 = uniform
  std::size_t cache_mb;  ///< vicinityd --cache-mb
  std::size_t update_every;  ///< see UpdateFeed::every; 0 = no updates
  std::size_t lone_updates;  ///< per round, with no reads in flight (even)
  Shares shares;
};

/// lj_serve_zipf_mixed times its updates under query load only, inside the
/// closed loop; the other two apply a fixed count per round with no reads
/// in flight, so every run times the same updates.
constexpr Workload kWorkloads[] = {
    {"lj_inproc", 0.005, false, 0.0, 0, 0, 6, {0.24, 0.14, 0.12, 0.36}},
    {"lj_serve", 0.005, true, 0.0, 0, 0, 6, {0.10, 0.06, 0.34, 0.36}},
    {"lj_serve_zipf_mixed", 0.005, true, 1.0, 64, 8192, 0,
     {0.10, 0.06, 0.24, 0.60}},
};

/// The graph, the index and the update stream are the same in every run:
/// --seed draws the query pairs and the BFS sample. Graphs of different
/// seeds differ by ±12% in index size, and one update's cost varies
/// several-fold with its edge; either would swamp the program's own spread
/// between seeds.
constexpr std::uint64_t kGraphSeed = 1;
constexpr double kAlpha = 4.0;
constexpr unsigned kLanes = 2;             ///< engine lanes, vicinityd --threads
constexpr std::size_t kPairs = 1u << 17;   ///< pair list, cycled by phases
constexpr std::size_t kWarmPairs = 1u << 14;  ///< warm-up prefix of the list
constexpr std::size_t kBatch = 1024;       ///< run_batch chunk, reference pass
constexpr std::size_t kWindow = 64;        ///< pipelined / in-process batch
constexpr std::size_t kStatsRing = 65536;  ///< vicinityd latency ring size
constexpr std::size_t kSample = 128;       ///< pairs checked against BFS
constexpr std::size_t kUpdateStream = 4096;
constexpr double kOpenRates[] = {1000, 5000, 20000};
constexpr double kOpenSeconds = 0.5;

/// The result line's metrics, in BENCHMARK.json order, with their units.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"oracle_p50_us", "us"},
    {"oracle_p99_us", "us"},    {"oracle_qps", "1/s"},
    {"lone_p50_us", "us"},      {"lone_p99_us", "us"},
    {"served_qps", "1/s"},      {"served_p50_us", "us"},
    {"served_p99_us", "us"},    {"update_p50_us", "us"},
    {"index_mib", "MiB"},       {"rss_mib", "MiB"},
    {"correct_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.profile_s", "s"},
    {"core.build_s", "s"},
    {"core.build.vicinity_entries", "count"},
    {"core.serialize.save_s", "s"},
    {"core.serialize.open_ms", "ms"},
    {"core.oracle.intersection_us.p50", "us"},
    {"core.oracle.intersection_us.p99", "us"},
    {"core.oracle.fallback_us.p50", "us"},
    {"core.oracle.fallback_us.p99", "us"},
    {"core.oracle.in_vicinity_us.p50", "us"},
    {"core.oracle.landmark_us.p50", "us"},
    {"core.oracle.coverage_frac", "ratio"},
    {"core.oracle.hash_lookups_per_query", "count"},
    {"core.query_engine.batch_us.p50", "us"},
    {"core.query_engine.lane_scaling", "ratio"},
    {"net.server.cpu_us_per_query", "us"},
    {"net.server.ctx_switches_per_query", "count"},
    {"net.server.threads", "count"},
    {"net.server.server_p50_us", "us"},
    {"net.server.server_p99_us", "us"},
    {"net.server.batch_size.mean", "count"},
    {"net.server.shed", "count"},
    {"net.server.timeouts", "count"},
    {"net.wire_us.p50", "us"},
    {"net.served_over_inproc.p50", "ratio"},
    {"net.open_loop.r1000.p99_us", "us"},
    {"net.open_loop.r1000.lateness_p99_us", "us"},
    {"net.open_loop.r5000.p99_us", "us"},
    {"net.open_loop.r5000.lateness_p99_us", "us"},
    {"net.open_loop.r20000.p99_us", "us"},
    {"net.open_loop.r20000.lateness_p99_us", "us"},
    {"net.client.cpu_us_per_request", "us"},
    {"cache.hit_rate", "ratio"},
    {"cache.inserts", "count"},
    {"cache.evictions", "count"},
    {"core.dynamic.affected_vicinities.mean", "count"},
    {"core.dynamic.landmark_rows.mean", "count"},
    {"core.dynamic.full_rebuilds", "count"},
    {"trace.overhead.oracle_p50_us", "us"},
    {"trace.overhead.lone_p50_us", "us"},
    {"trace.overhead.served_p50_us", "us"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string work_dir;
  double scale_mult = 1.0;
  int setup_reps = 3;
  std::size_t corrupt = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH --work-dir DIR [--scale-mult X] "
               "[--setup-reps N] [--corrupt-reference K]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--daemon") a.daemon = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--scale-mult") a.scale_mult = std::stod(v);
    else if (k == "--setup-reps") a.setup_reps = std::max(1, std::stoi(v));
    else if (k == "--corrupt-reference") a.corrupt = std::stoull(v);
    else usage("unknown flag " + k);
  }
  if (a.work_dir.empty()) usage("--work-dir is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

Answer to_answer(const core::QueryResult& r) {
  return {r.dist, static_cast<std::uint8_t>(r.method), r.exact};
}

/// Pairs over node ids: uniform, or Zipf(theta) over nodes ranked by
/// degree (rank 0 = the biggest hub), so skew concentrates on hubs.
std::vector<Pair> make_pairs(const graph::Graph& g, double theta,
                             std::uint64_t seed) {
  const NodeId n = g.num_nodes();
  vicinity::util::Rng rng(seed ^ 0x9a17'5eed'0000'0001ull);
  std::vector<NodeId> by_rank(n);
  std::vector<double> cdf;
  if (theta > 0) {
    for (NodeId v = 0; v < n; ++v) by_rank[v] = v;
    std::stable_sort(by_rank.begin(), by_rank.end(), [&](NodeId a, NodeId b) {
      return g.degree(a) > g.degree(b);
    });
    cdf.resize(n);
    double acc = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf[i] = acc;
    }
    for (double& c : cdf) c /= acc;
  }
  auto draw = [&]() -> NodeId {
    if (theta <= 0) return static_cast<NodeId>(rng.next_below(n));
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.next_double());
    return by_rank[std::min<std::size_t>(it - cdf.begin(), n - 1)];
  };
  std::vector<Pair> pairs(kPairs);
  for (Pair& p : pairs) p = {draw(), draw()};
  return pairs;
}

/// A seeded stream of edge updates in toggle pairs. Two pairs in three
/// insert a random non-edge and then delete it; the third deletes a random
/// edge and then inserts it back. After every pair the graph is the one
/// generated again, so reads between update slices keep the epoch-0 answers.
std::vector<core::GraphUpdate> make_updates(const graph::Graph& g,
                                            std::uint64_t seed) {
  vicinity::util::Rng rng(seed ^ 0x0bda'7e50'0000'0002ull);
  const NodeId n = g.num_nodes();
  auto node = [&] { return static_cast<NodeId>(rng.next_below(n)); };
  std::vector<core::GraphUpdate> out;
  while (out.size() < kUpdateStream) {
    NodeId u = 0, v = 0;
    if ((out.size() / 2) % 3 == 2) {
      do {
        u = node();
      } while (g.neighbors(u).empty());
      v = g.neighbors(u)[rng.next_below(g.neighbors(u).size())];
      out.push_back(core::GraphUpdate::remove(u, v));
      out.push_back(core::GraphUpdate::insert(u, v));
    } else {
      do {
        u = node();
        v = node();
      } while (u == v || g.has_edge(u, v));
      out.push_back(core::GraphUpdate::insert(u, v));
      out.push_back(core::GraphUpdate::remove(u, v));
    }
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  ///< behind a percentile or mean; 0 = not a sample
};

/// The read phases are cut into kRounds slices each, run round-robin, so
/// every metric's slices spread over the whole run (see Series). With
/// --trace 1 odd rounds are traced and even ones are not; the difference
/// between the two is the tracing overhead.
constexpr int kRounds = 16;

/// Daemon counters at one phase boundary.
struct Snapshot {
  ProcSample proc;
  net::StatsReply stats;
};

/// Daemon counter deltas summed over the traced slices of one phase.
struct Deltas {
  double cpu_us = 0.0, ctx_switches = 0.0;
  double queries = 0.0, batches = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0;
  double cache_inserts = 0.0, cache_evictions = 0.0;
  std::size_t requests = 0;  ///< the benchmark's requests in those slices

  void add(const Snapshot& a, const Snapshot& b, std::size_t sent) {
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    cpu_us += b.proc.cpu_us - a.proc.cpu_us;
    ctx_switches += d(a.proc.ctx_switches, b.proc.ctx_switches);
    queries += d(a.stats.queries_total, b.stats.queries_total);
    batches += d(a.stats.batches_total, b.stats.batches_total);
    cache_hits += d(a.stats.cache_hits, b.stats.cache_hits);
    cache_misses += d(a.stats.cache_misses, b.stats.cache_misses);
    cache_inserts += d(a.stats.cache_inserts, b.stats.cache_inserts);
    cache_evictions += d(a.stats.cache_evictions, b.stats.cache_evictions);
    requests += sent;
  }
};

/// One slice of a timed phase.
struct Timed {
  std::vector<double> latency_us;
  std::vector<std::int64_t> done_ns;  ///< when each entry completed
  std::int64_t start_ns = 0;
  std::size_t items = 1;              ///< completions per done_ns entry
  double steal = 0.0;                 ///< see steal_since()

  /// Completions per second, 0 when nothing completed.
  double rate() const {
    if (done_ns.empty()) return 0.0;
    return static_cast<double>(done_ns.size() * items) /
           (static_cast<double>(std::max<std::int64_t>(
                1, done_ns.back() - start_ns)) /
            1e9);
  }
};

/// The read metrics of a run, gathered over its rounds.
struct Reads {
  Series oracle, throughput, lone, served;
};

class Run {
 public:
  Run(const Workload& w, const Args& a)
      : w_(w), a_(a), tracer_(a.trace) {
    std::filesystem::create_directories(a.work_dir);
    const std::string base = a.work_dir + "/" + w.name;
    index_path_ = base + ".vci";
    graph_path_ = base + ".graph";
    log_path_ = base + ".vicinityd.log";
    std::filesystem::remove(log_path_);
  }

  void run() {
    host0_ = read_host();
    for (int r = 0; r < a_.setup_reps; ++r) setup();
    if (w_.served) open_reference();
    updates_ = make_updates(*g_, kGraphSeed);
    feed_ = {updates_, 0, w_.update_every};
    reference_pass();
    // memory_stats() of the mapped index, for the README's finding that it
    // leaves out the mapped arenas.
    mapped_mib_ =
        static_cast<double>(index_->memory_stats().bytes) / 1048576.0;
    check_sample_against_bfs("pre-update");
    if (w_.served) {
      run_served();
    } else {
      run_inproc();
    }
    tracer_.write(a_.work_dir + "/" + w_.name + ".trace.jsonl");
    host1_ = read_host();
  }

  int report() const;

 private:
  // -- set-up ---------------------------------------------------------------

  void setup();
  void open_reference();

  // -- phases ---------------------------------------------------------------

  void reference_pass();
  Timed oracle_slice(double seconds, bool traced);
  Timed throughput_slice(double seconds, unsigned lanes, bool traced);
  Timed engine_lone_slice(double seconds, bool traced);
  Timed engine_served_slice(double seconds, bool traced);
  void engine_updates(std::size_t count);
  Timed wire_slice(bool lone, double seconds, bool traced);
  void wire_updates(std::size_t count);
  void read_rounds();
  void run_inproc();
  void run_served();
  Snapshot snapshot(const char* at);

  // -- verification ---------------------------------------------------------

  /// Where a failure was found: a BFS sample, an in-process answer against
  /// the reference, or the daemon (a served answer, a refused update, a
  /// bad exit).
  enum Where { kBfs, kInproc, kWire };
  void fail(Where w, std::uint64_t n = 1) { failed_[w] += n; }
  std::uint64_t failed() const {
    return failed_[kBfs] + failed_[kInproc] + failed_[kWire];
  }

  void check(const Answer& got, const Answer& want, Where w = kInproc) {
    ++attempted_;
    if (!got.exact || !(got == want)) fail(w);
  }
  std::vector<std::uint32_t> bfs_sample() const;
  void check_sample_against_bfs(const char* when);
  void verify_wire();

  // -- metrics --------------------------------------------------------------

  void e2e(const std::string& name, double v, const char* unit,
           std::size_t n = 0) {
    e2e_.push_back({name, v, unit, n});
  }
  void layer(const std::string& name, double v, const char* unit,
             std::size_t n = 0) {
    layer_.push_back({name, v, unit, n});
  }
  void read_metrics();
  void update_metrics();
  void take_updates(const WireLog& log);
  void layer_oracle();
  void layer_server(const Snapshot& first, const Snapshot& last);

  const Workload& w_;
  const Args a_;
  Tracer tracer_;
  std::string index_path_, graph_path_, log_path_;

  std::unique_ptr<graph::Graph> g_;
  std::optional<vicinity::Index> index_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<net::Client> control_;

  std::vector<Pair> pairs_;
  std::vector<core::Query> queries_;
  std::vector<Answer> ref0_;
  std::vector<core::GraphUpdate> updates_;
  UpdateFeed feed_;

  // Where each phase continues in the pair list from one round to the next.
  PairCursor oracle_pairs_, batch_pairs_, lone_pairs_, served_pairs_;

  Reads reads_[2];  ///< [0] untraced rounds, [1] traced rounds
  Series one_lane_;
  std::vector<double> update_lat_;  ///< every timed update
  std::vector<core::UpdateStats> update_stats_;
  Deltas lone_deltas_, served_deltas_;
  net::StatsReply last_served_stats_;
  std::uint64_t oracle_calls_ = 0, lookups_ = 0, covered_ = 0;
  double served_client_cpu_us_ = 0.0;

  std::vector<WireReply> wire_replies_;
  std::vector<WireUpdate> wire_updates_;
  std::vector<WireReply> final_sample_;

  std::vector<double> setup_s_, gen_s_, build_s_, save_s_, open_ms_;
  double vicinity_entries_ = 0.0, heap_mib_ = 0.0, mapped_mib_ = 0.0;
  double rss_mib_ = 0.0;
  HostSample host0_, host1_;  ///< the machine, at the start and end of run()

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_[3] = {};  ///< by Where
  std::vector<Metric> e2e_, layer_;
};

// ---- set-up ----------------------------------------------------------------

void Run::setup() {
  control_.reset();
  daemon_.reset();
  engine_.reset();
  index_.reset();
  g_.reset();
  const std::uint64_t span = tracer_.next_id();
  const std::int64_t t0 = now_ns();
  const double scale = w_.scale * a_.scale_mult;
  auto profile = vicinity::gen::make_profile("livejournal", kGraphSeed, scale);
  g_ = std::make_unique<graph::Graph>(std::move(profile.graph));
  const std::int64_t t1 = now_ns();
  tracer_.span("gen.profile", tracer_.next_id(), span, t0, t1);
  // Input generation for the benchmark itself, not part of set-up time.
  pairs_ = make_pairs(*g_, w_.zipf, a_.seed);
  queries_.clear();
  for (const Pair& p : pairs_) queries_.push_back({p.s, p.t});
  const std::int64_t t1b = now_ns();

  core::OracleOptions opt;
  opt.alpha = kAlpha;
  opt.fallback = core::Fallback::kBidirectionalBfs;
  opt.store_landmark_parents = true;  // as vicinity_cli build writes it
  opt.build_threads = 1;
  std::int64_t t2 = 0, t3 = 0;
  {
    const auto built = vicinity::Index::build(*g_, opt);
    t2 = now_ns();
    vicinity_entries_ =
        static_cast<double>(built.memory_stats().vicinity_entries);
    heap_mib_ = static_cast<double>(built.memory_stats().bytes) / 1048576.0;
    built.save(index_path_);
    if (w_.served) graph::save_binary_file(*g_, graph_path_);
    t3 = now_ns();
  }  // what gets served is the saved file, not this copy
  tracer_.span("core.build", tracer_.next_id(), span, t1b, t2);
  tracer_.span("core.serialize.save", tracer_.next_id(), span, t2, t3);

  const std::int64_t t4 = now_ns();
  if (w_.served) {
    std::vector<std::string> args = {
        "--graph=" + graph_path_, "--index=" + index_path_, "--port=0",
        "--threads=" + std::to_string(kLanes)};
    if (w_.cache_mb > 0) {
      args.push_back("--cache-mb=" + std::to_string(w_.cache_mb));
    }
    daemon_ = std::make_unique<Daemon>(a_.daemon, args, log_path_);
  } else {
    index_.emplace(vicinity::Index::open(index_path_, *g_));
    engine_ = std::make_unique<core::QueryEngine>(index_->shared_oracle(),
                                                  kLanes);
  }
  const std::int64_t t5 = now_ns();
  tracer_.span(w_.served ? "net.daemon.start" : "core.serialize.open",
               tracer_.next_id(), span, t4, t5);

  // Warm the mapped index and the engine (or the daemon) on the warm-up
  // prefix of the pair list, so no timed phase pays first-touch faults.
  if (w_.served) {
    PairCursor warm{std::span<const Pair>(pairs_).first(kWarmPairs)};
    UpdateFeed none;
    Tracer off(false);
    const WireLog log =
        run_closed(daemon_->port(), warm, kWindow, 0.0, kWarmPairs, none, off, 0);
    wire_replies_ = log.replies;  // only the last set-up's daemon is checked
  } else {
    std::vector<core::QueryResult> res(kWarmPairs);
    engine_->run_batch(std::span<const core::Query>(queries_).first(kWarmPairs),
                       res, kLanes);
  }
  const std::int64_t t6 = now_ns();
  tracer_.span("warm", tracer_.next_id(), span, t5, t6);
  tracer_.span("setup", span, 0, t0, t6);

  rss_mib_ = read_proc(w_.served ? daemon_->pid() : 0).rss_mib;
  setup_s_.push_back(static_cast<double>((t1 - t0) + (t6 - t1b)) / 1e9);
  gen_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
  build_s_.push_back(static_cast<double>(t2 - t1b) / 1e9);
  save_s_.push_back(static_cast<double>(t3 - t2) / 1e9);
  open_ms_.push_back(static_cast<double>(t5 - t4) / 1e6);
  if (w_.served) {
    control_ = std::make_unique<net::Client>();
    control_->connect("127.0.0.1", daemon_->port());
  }
}

/// Served workloads: the benchmark's own in-process copy of the index the
/// daemon serves, over its own copy of the graph. It is the reference the
/// served answers are compared with, and the in-process baseline.
void Run::open_reference() {
  index_.emplace(vicinity::Index::open(index_path_, *g_));
  engine_ =
      std::make_unique<core::QueryEngine>(index_->shared_oracle(), kLanes);
  std::vector<core::QueryResult> res(kWarmPairs);
  engine_->run_batch(std::span<const core::Query>(queries_).first(kWarmPairs),
                     res, kLanes);
}

// ---- phases ----------------------------------------------------------------

/// Every pair once through run_batch at kLanes lanes: the epoch-0
/// reference answers.
void Run::reference_pass() {
  const std::uint64_t span = tracer_.next_id();
  std::vector<core::QueryResult> res(kPairs);
  const std::int64_t t0 = now_ns();
  engine_->run_batch(queries_, res, kLanes);
  tracer_.span("reference_pass", span, 0, t0, now_ns());
  ref0_.resize(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    ref0_[i] = to_answer(res[i]);
    ++attempted_;
    if (!ref0_[i].exact) fail(kInproc);
  }
  for (std::size_t i = 0; i < std::min(a_.corrupt, kPairs - kWarmPairs); ++i) {
    ref0_[i + kWarmPairs].dist += 1;  // the first pairs every phase asks
  }
  oracle_pairs_ = batch_pairs_ = lone_pairs_ = served_pairs_ =
      PairCursor{pairs_, kWarmPairs};
}

/// One QueryEngine::query per pair on this thread, each call timed.
Timed Run::oracle_slice(double seconds, bool traced) {
  Timed out;
  const HostSample host = read_host();
  const std::uint64_t span = tracer_.next_id();
  core::QueryContext ctx = engine_->make_context();
  const std::int64_t start = now_ns();
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t1 = start;
  while (t1 < end) {
    const std::uint32_t i = oracle_pairs_.next();
    const std::int64_t t0 = now_ns();
    const core::QueryResult r = engine_->query(pairs_[i].s, pairs_[i].t, ctx);
    t1 = now_ns();
    out.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (traced) {
      tracer_.span("core.oracle.query", tracer_.next_id(), span, t0, t1,
                   static_cast<std::int64_t>(r.method));
      ++oracle_calls_;
      lookups_ += r.hash_lookups;
      covered_ += r.method != core::QueryMethod::kFallbackExact &&
                  r.method != core::QueryMethod::kFallbackEstimate &&
                  r.method != core::QueryMethod::kNotFound;
    }
    check(to_answer(r), ref0_[i]);
  }
  out.steal = steal_since(host);
  tracer_.span("oracle_phase", span, 0, start, t1);
  return out;
}

/// Chunks of kBatch pairs through run_batch on `lanes` lanes.
Timed Run::throughput_slice(double seconds, unsigned lanes, bool traced) {
  Timed out;
  const HostSample host = read_host();
  out.items = kBatch;
  const std::uint64_t span = tracer_.next_id();
  std::vector<core::QueryResult> res(kBatch);
  const std::int64_t start = now_ns();
  out.start_ns = start;
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t1 = start;
  while (t1 < end) {
    auto off = static_cast<std::size_t>(batch_pairs_.cursor % kPairs);
    if (off + kBatch > kPairs) off = 0;
    batch_pairs_.cursor = off + kBatch;
    const std::int64_t t0 = now_ns();
    engine_->run_batch(std::span<const core::Query>(queries_).subspan(off, kBatch),
                       res, lanes);
    t1 = now_ns();
    out.done_ns.push_back(t1);
    if (traced) {
      tracer_.span("core.query_engine.run_batch", tracer_.next_id(), span, t0,
                   t1, static_cast<std::int64_t>(lanes * kBatch));
    }
    for (std::size_t k = 0; k < kBatch; ++k) check(to_answer(res[k]), ref0_[off + k]);
  }
  out.steal = steal_since(host);
  tracer_.span("throughput_phase", span, 0, start, t1);
  return out;
}

/// In-process "lone request": one query at a time through run_batch.
Timed Run::engine_lone_slice(double seconds, bool traced) {
  Timed out;
  const HostSample host = read_host();
  const std::uint64_t span = tracer_.next_id();
  core::QueryResult r;
  const std::int64_t start = now_ns();
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t1 = start;
  while (t1 < end) {
    const std::uint32_t i = lone_pairs_.next();
    const std::int64_t t0 = now_ns();
    engine_->run_batch(std::span<const core::Query>(&queries_[i], 1),
                       std::span<core::QueryResult>(&r, 1), kLanes);
    t1 = now_ns();
    out.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (traced) {
      tracer_.span("core.query_engine.run_batch", tracer_.next_id(), span, t0,
                   t1, 1);
    }
    check(to_answer(r), ref0_[i]);
  }
  out.steal = steal_since(host);
  tracer_.span("lone_phase", span, 0, start, t1);
  return out;
}

/// In-process closed loop: batches of kWindow consecutive pairs through
/// run_batch at kLanes lanes; each query's latency is its batch's.
Timed Run::engine_served_slice(double seconds, bool traced) {
  Timed out;
  const HostSample host = read_host();
  out.items = kWindow;
  const std::uint64_t span = tracer_.next_id();
  std::vector<core::QueryResult> res(kWindow);
  const std::int64_t start = now_ns();
  out.start_ns = start;
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t1 = start;
  while (t1 < end) {
    auto off = static_cast<std::size_t>(served_pairs_.cursor % kPairs);
    if (off + kWindow > kPairs) off = 0;
    served_pairs_.cursor = off + kWindow;
    const std::int64_t t0 = now_ns();
    engine_->run_batch(std::span<const core::Query>(queries_).subspan(off, kWindow),
                       res, kLanes);
    t1 = now_ns();
    out.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out.done_ns.push_back(t1);
    if (traced) {
      tracer_.span("core.query_engine.run_batch", tracer_.next_id(), span, t0,
                   t1, kWindow);
    }
    for (std::size_t k = 0; k < kWindow; ++k) {
      check(to_answer(res[k]), ref0_[off + k]);
    }
  }
  out.steal = steal_since(host);
  tracer_.span("served_phase", span, 0, start, t1);
  return out;
}

/// In-process updates: `count` QueryEngine::apply_update calls one at a
/// time, no reads in flight, in whole toggle pairs.
void Run::engine_updates(std::size_t count) {
  const std::uint64_t span = tracer_.next_id();
  const std::int64_t start = now_ns();
  for (std::size_t k = 0; k < count && feed_.next < updates_.size(); ++k) {
    const std::int64_t t0 = now_ns();
    const core::UpdateStats st = engine_->apply_update(*g_, updates_[feed_.next++]);
    const std::int64_t t1 = now_ns();
    update_lat_.push_back(static_cast<double>(t1 - t0) / 1e3);
    update_stats_.push_back(st);
    ++attempted_;
    tracer_.span("core.dynamic.apply_update", tracer_.next_id(), span, t0, t1,
                 static_cast<std::int64_t>(st.kind));
  }
  tracer_.span("update_phase", span, 0, start, now_ns());
}

/// update_p50_us: the median over every update of the run. The stream is
/// fixed and each round applies the same number of its updates, so every
/// run times the same updates. One update's cost varies several-fold with
/// its edge, so choosing quiet slices, as the reads do, would change which
/// updates are timed and move the median more than the steal it avoids.
void Run::update_metrics() {
  e2e("update_p50_us", median(update_lat_), "us", update_lat_.size());
  std::vector<double> affected, rows;
  double rebuilds = 0;
  for (const auto& s : update_stats_) {
    affected.push_back(static_cast<double>(s.affected_vicinities));
    rows.push_back(static_cast<double>(s.landmark_rows_refreshed));
    rebuilds += s.full_rebuild ? 1 : 0;
  }
  layer("core.dynamic.affected_vicinities.mean", mean(affected), "count",
        affected.size());
  layer("core.dynamic.landmark_rows.mean", mean(rows), "count", rows.size());
  layer("core.dynamic.full_rebuilds", rebuilds, "count", update_stats_.size());
}

/// The read phases, kRounds slices each, round-robin.
void Run::read_rounds() {
  const Shares& sh = w_.shares;
  const double slice = a_.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    const bool traced = a_.trace && round % 2 == 1;
    Reads& r = reads_[traced ? 1 : 0];
    auto add = [](Series& to, Timed t) {
      to.add(std::move(t.latency_us), t.rate(), t.steal);
    };
    add(r.oracle, oracle_slice(sh.oracle * slice, traced));
    add(r.throughput, throughput_slice(sh.throughput * slice, kLanes, traced));
    if (traced) add(one_lane_, throughput_slice(sh.throughput * slice, 1, traced));
    if (!w_.served) {
      add(r.lone, engine_lone_slice(sh.lone * slice, traced));
      add(r.served, engine_served_slice(sh.served * slice, traced));
      engine_updates(w_.lone_updates);
      continue;
    }
    add(r.lone, wire_slice(true, sh.lone * slice, traced));
    add(r.served, wire_slice(false, sh.served * slice, traced));
    if (w_.lone_updates > 0) wire_updates(w_.lone_updates);
  }
}

/// The e2e read metrics, from the untraced rounds.
void Run::read_metrics() {
  const Reads& r = reads_[0];
  e2e("oracle_p50_us", r.oracle.p50(), "us", r.oracle.samples());
  e2e("oracle_p99_us", r.oracle.p99(), "us", r.oracle.samples());
  e2e("oracle_qps", r.throughput.rate(), "1/s");
  e2e("lone_p50_us", r.lone.p50(), "us", r.lone.samples());
  e2e("lone_p99_us", r.lone.p99(), "us", r.lone.samples());
  e2e("served_qps", r.served.rate(), "1/s");
  e2e("served_p50_us", r.served.p50(), "us", r.served.samples());
  e2e("served_p99_us", r.served.p99(), "us", r.served.samples());
  if (!a_.trace) return;
  const Reads& t = reads_[1];
  layer("trace.overhead.oracle_p50_us", t.oracle.p50() - r.oracle.p50(), "us");
  layer("trace.overhead.lone_p50_us", t.lone.p50() - r.lone.p50(), "us");
  layer("trace.overhead.served_p50_us", t.served.p50() - r.served.p50(), "us");
  layer("core.query_engine.lane_scaling",
        t.throughput.rate() / one_lane_.rate(), "ratio");
  layer_oracle();
}

void Run::run_inproc() {
  read_rounds();
  update_metrics();

  // Reads done and updates applied: the index must still match BFS.
  const auto sample = bfs_sample();
  std::vector<core::Query> q;
  for (const std::uint32_t i : sample) q.push_back(queries_[i]);
  std::vector<core::QueryResult> res(q.size());
  engine_->run_batch(q, res, kLanes);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    final_sample_.push_back({sample[k], net::Status::kOk, true,
                             engine_->epoch(), to_answer(res[k])});
  }
  check_sample_against_bfs("post-update");
  read_metrics();
}

// ---- served ----------------------------------------------------------------

Snapshot Run::snapshot(const char* at) {
  Snapshot s{read_proc(daemon_->pid()), control_->stats()};
  if (tracer_.on()) {
    const auto& st = s.stats;
    tracer_.event(
        "snapshot",
        std::string("\"at\":\"") + at + "\",\"cpu_us\":" +
            std::to_string(s.proc.cpu_us) + ",\"ctx_switches\":" +
            std::to_string(s.proc.ctx_switches) + ",\"threads\":" +
            std::to_string(s.proc.threads) + ",\"rss_mib\":" +
            std::to_string(s.proc.rss_mib) + ",\"queries_total\":" +
            std::to_string(st.queries_total) + ",\"batches_total\":" +
            std::to_string(st.batches_total) + ",\"shed_total\":" +
            std::to_string(st.shed_total) + ",\"timeouts_total\":" +
            std::to_string(st.timeouts_total) + ",\"cache_hits\":" +
            std::to_string(st.cache_hits) + ",\"cache_misses\":" +
            std::to_string(st.cache_misses) + ",\"p50_us\":" +
            std::to_string(st.p50_us) + ",\"p99_us\":" +
            std::to_string(st.p99_us));
  }
  return s;
}

/// One lone or closed-loop slice over the wire. Traced slices are framed by
/// daemon snapshots; a traced closed slice answers at least kStatsRing
/// requests, so the STATS percentiles read after it are its own.
Timed Run::wire_slice(bool lone, double seconds, bool traced) {
  Tracer off(false);
  Tracer& tr = traced ? tracer_ : off;
  const std::uint64_t span = tracer_.next_id();
  const Snapshot before = traced ? snapshot(lone ? "lone.begin" : "served.begin")
                                 : Snapshot{};
  const HostSample host = read_host();
  const std::int64_t t0 = now_ns();
  WireLog log =
      lone ? run_lone(daemon_->port(), lone_pairs_, seconds, tr, span)
           : run_closed(daemon_->port(), served_pairs_, kWindow, seconds,
                        traced ? kStatsRing : 1, feed_, tr, span);
  const double steal = steal_since(host);
  tracer_.span(lone ? "lone_phase" : "served_phase", span, 0, t0, now_ns());
  if (traced) {
    const Snapshot after = snapshot(lone ? "lone.end" : "served.end");
    (lone ? lone_deltas_ : served_deltas_).add(before, after, log.replies.size());
    if (!lone) last_served_stats_ = after.stats;
    if (!lone) served_client_cpu_us_ += log.client_cpu_us;
  }
  wire_replies_.insert(wire_replies_.end(), log.replies.begin(),
                       log.replies.end());
  take_updates(log);
  return {std::move(log.latency_us), std::move(log.done_ns), log.start_ns, 1,
          steal};
}

/// Keeps a phase's APPLY_UPDATEs for verification, and their latencies and
/// repair footprints for the update metrics.
void Run::take_updates(const WireLog& log) {
  for (const WireUpdate& u : log.updates) {
    update_lat_.push_back(u.latency_us);
    core::UpdateStats s;
    s.affected_vicinities = u.reply.affected_vicinities;
    s.landmark_rows_refreshed = u.reply.landmark_rows_refreshed;
    s.full_rebuild = u.reply.full_rebuild;
    update_stats_.push_back(s);
  }
  wire_updates_.insert(wire_updates_.end(), log.updates.begin(),
                       log.updates.end());
}

/// `count` APPLY_UPDATEs one at a time after the round's reads, in whole
/// toggle pairs.
void Run::wire_updates(std::size_t count) {
  const std::uint64_t span = tracer_.next_id();
  const std::int64_t t0 = now_ns();
  const WireLog log =
      run_lone_updates(daemon_->port(), feed_, count, tracer_, span);
  tracer_.span("update_phase", span, 0, t0, now_ns());
  take_updates(log);
}

void Run::run_served() {
  const Snapshot first = snapshot("run.begin");
  read_rounds();
  const Snapshot last = snapshot("run.end");

  if (a_.trace) {
    // Latency against offered load, open loop at fixed rates.
    for (const double rate : kOpenRates) {
      const std::uint64_t span = tracer_.next_id();
      std::vector<double> late;
      const std::int64_t t0 = now_ns();
      PairCursor cur{pairs_, kWarmPairs};
      const WireLog log = run_open(daemon_->port(), cur, rate, kOpenSeconds,
                                   late, tracer_, span);
      tracer_.span("open_loop", span, 0, t0, now_ns(),
                   static_cast<std::int64_t>(rate));
      std::vector<double> lat = log.latency_us;
      const std::string p = "net.open_loop.r" + std::to_string(int(rate));
      layer(p + ".p99_us", percentile(lat, 0.99), "us", lat.size());
      layer(p + ".lateness_p99_us", percentile(late, 0.99), "us", late.size());
      wire_replies_.insert(wire_replies_.end(), log.replies.begin(),
                           log.replies.end());
    }
    layer_server(first, last);
  }

  update_metrics();

  // The daemon's final state, checked against BFS after the replay.
  for (const std::uint32_t i : bfs_sample()) {
    const auto raw = control_->distance(pairs_[i].s, pairs_[i].t);
    final_sample_.push_back({i, net::Status::kOk, true, raw.epoch,
                             {raw.record.dist, raw.record.method,
                              raw.record.exact}});
  }
  read_metrics();

  control_.reset();
  const int code = daemon_->stop();
  if (code != 0) {
    std::cerr << "perfbench: vicinityd exited with code " << code << "\n";
    fail(kWire);
  }
  verify_wire();
}

// ---- verification ----------------------------------------------------------

std::vector<std::uint32_t> Run::bfs_sample() const {
  vicinity::util::Rng rng(a_.seed ^ 0x5a3b'1e00'0000'0003ull);
  std::vector<std::uint32_t> out;
  while (out.size() < kSample) {
    out.push_back(static_cast<std::uint32_t>(rng.next_below(kPairs)));
  }
  return out;
}

/// "pre-update": the epoch-0 reference answers against BFS on the graph as
/// generated. "post-update": final_sample_ against BFS on the graph after
/// every update.
void Run::check_sample_against_bfs(const char* when) {
  const bool pre = std::string(when) == "pre-update";
  std::vector<std::pair<std::uint32_t, Answer>> todo;
  if (pre) {
    for (const std::uint32_t i : bfs_sample()) todo.push_back({i, ref0_[i]});
  } else {
    for (const WireReply& r : final_sample_) todo.push_back({r.pair, r.answer});
  }
  std::size_t wrong = 0;
  vicinity::algo::BfsRunner bfs(*g_);
  for (const auto& [i, got] : todo) {
    ++attempted_;
    if (!got.exact || got.dist != bfs.distance(pairs_[i].s, pairs_[i].t)) {
      ++wrong;
    }
  }
  fail(kBfs, wrong);
  std::printf("check %s: %zu of %zu sampled answers differ from BFS\n", when,
              wrong, todo.size());
}

/// Every served answer against the in-process reference at the epoch the
/// daemon stamped on it. Updates come in toggle pairs, applied in stream
/// order: after an even number of them the graph is the one generated and
/// the answers are the epoch-0 ones; after an odd number it differs by one
/// edge, and the reference applies that update, answers the epoch's replies
/// (a few also against BFS), and undoes it.
void Run::verify_wire() {
  std::uint64_t applied = 0;  // epochs whose update is known and acknowledged
  for (const WireUpdate& u : wire_updates_) {
    ++attempted_;
    if (!u.ok) fail(kWire);
  }
  for (const WireUpdate& u : wire_updates_) {
    if (!u.ok || u.reply.epoch != u.stream_index + 1) break;
    applied = std::max(applied, u.reply.epoch);
  }
  std::map<std::uint64_t, std::vector<const WireReply*>> by_epoch;
  for (const WireReply& r : wire_replies_) {
    if (!r.answered || r.status != net::Status::kOk || r.epoch > applied) {
      ++attempted_;
      fail(kWire);
    } else {
      by_epoch[r.epoch].push_back(&r);
    }
  }
  vicinity::algo::BfsRunner bfs(*g_);
  std::vector<core::Query> q;
  std::vector<core::QueryResult> res;
  for (const auto& [epoch, replies] : by_epoch) {
    if (epoch % 2 == 0) {
      for (const WireReply* r : replies) check(r->answer, ref0_[r->pair], kWire);
      continue;
    }
    engine_->apply_update(*g_, updates_[epoch - 1]);
    q.clear();
    for (const WireReply* r : replies) q.push_back(queries_[r->pair]);
    res.resize(q.size());
    engine_->run_batch(q, res, kLanes);
    for (std::size_t k = 0; k < q.size(); ++k) {
      check(replies[k]->answer, to_answer(res[k]), kWire);
      if (k < 4) {
        ++attempted_;
        if (replies[k]->answer.dist != bfs.distance(q[k].s, q[k].t)) fail(kWire);
      }
    }
    engine_->apply_update(*g_, updates_[epoch]);
  }
  check_sample_against_bfs("post-update");
}

// ---- per-layer metrics -------------------------------------------------------

void Run::layer_oracle() {
  using M = core::QueryMethod;
  auto lat = [&](std::initializer_list<M> ms) {
    return tracer_.durations_us("core.oracle.query", [ms](std::int64_t attr) {
      for (const M m : ms) {
        if (attr == static_cast<std::int64_t>(m)) return true;
      }
      return false;
    });
  };
  auto inter = lat({M::kVicinityIntersection});
  auto fallback = lat({M::kFallbackExact, M::kFallbackEstimate});
  auto in_vic = lat({M::kTargetInSourceVicinity, M::kSourceInTargetVicinity});
  auto landmark = lat({M::kSourceIsLandmark, M::kTargetIsLandmark});
  layer("core.oracle.intersection_us.p50", percentile(inter, 0.5), "us", inter.size());
  layer("core.oracle.intersection_us.p99", percentile(inter, 0.99), "us", inter.size());
  layer("core.oracle.fallback_us.p50", percentile(fallback, 0.5), "us", fallback.size());
  layer("core.oracle.fallback_us.p99", percentile(fallback, 0.99), "us", fallback.size());
  layer("core.oracle.in_vicinity_us.p50", percentile(in_vic, 0.5), "us", in_vic.size());
  layer("core.oracle.landmark_us.p50", percentile(landmark, 0.5), "us", landmark.size());
  const auto calls = static_cast<double>(std::max<std::uint64_t>(1, oracle_calls_));
  layer("core.oracle.coverage_frac", static_cast<double>(covered_) / calls,
        "ratio", oracle_calls_);
  layer("core.oracle.hash_lookups_per_query",
        static_cast<double>(lookups_) / calls, "count", oracle_calls_);
  auto batch = tracer_.durations_us("core.query_engine.run_batch",
                                    [](std::int64_t attr) {
                                      return attr == kLanes * kBatch;
                                    });
  layer("core.query_engine.batch_us.p50", percentile(batch, 0.5), "us",
        batch.size());
}

/// Serving-stack metrics from outside the daemon: /proc and STATS deltas
/// over the traced lone and closed-loop slices.
void Run::layer_server(const Snapshot& first, const Snapshot& last) {
  const Deltas& l = lone_deltas_;
  const Deltas& c = served_deltas_;
  const double lone_n = static_cast<double>(std::max<std::size_t>(1, l.requests));
  layer("net.server.cpu_us_per_query", l.cpu_us / lone_n, "us", l.requests);
  layer("net.server.ctx_switches_per_query", l.ctx_switches / lone_n, "count",
        l.requests);
  layer("net.server.threads", static_cast<double>(last.proc.threads), "count");
  // STATS percentiles cover a ring of the last kStatsRing requests; a
  // traced closed-loop slice answers at least that many.
  const net::StatsReply& st = last_served_stats_;
  layer("net.server.server_p50_us", st.p50_us, "us", kStatsRing);
  layer("net.server.server_p99_us", st.p99_us, "us", kStatsRing);
  layer("net.server.batch_size.mean", c.queries / std::max(1.0, c.batches),
        "count");
  layer("net.server.shed",
        static_cast<double>(last.stats.shed_total - first.stats.shed_total),
        "count");
  layer("net.server.timeouts",
        static_cast<double>(last.stats.timeouts_total -
                            first.stats.timeouts_total),
        "count");
  layer("net.wire_us.p50", reads_[1].served.p50() - st.p50_us, "us");
  const double lookups = c.cache_hits + c.cache_misses;
  layer("cache.hit_rate", lookups > 0 ? c.cache_hits / lookups : 0.0, "ratio");
  layer("cache.inserts", c.cache_inserts, "count");
  layer("cache.evictions", c.cache_evictions, "count");
  layer("net.client.cpu_us_per_request",
        served_client_cpu_us_ /
            static_cast<double>(std::max<std::size_t>(1, c.requests)),
        "us", c.requests);

  // In-process p50 on the pairs the lone slices asked, in this run.
  core::QueryContext ctx = engine_->make_context();
  std::vector<double> inproc;
  PairCursor same{pairs_, kWarmPairs};
  for (std::uint64_t k = kWarmPairs; k < lone_pairs_.cursor; ++k) {
    const std::uint32_t i = same.next();
    const std::int64_t t0 = now_ns();
    check(to_answer(engine_->query(pairs_[i].s, pairs_[i].t, ctx)), ref0_[i]);
    inproc.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  std::vector<double> lone = reads_[0].lone.all();
  const std::vector<double> traced_lone = reads_[1].lone.all();
  lone.insert(lone.end(), traced_lone.begin(), traced_lone.end());
  layer("net.served_over_inproc.p50", median(lone) / median(inproc), "ratio",
        inproc.size());
}

// ---- report ----------------------------------------------------------------

int Run::report() const {
  std::vector<Metric> all = e2e_;
  auto add = [&](const char* name, double v, const char* unit,
                 std::size_t n = 0) { all.push_back({name, v, unit, n}); };
  add("setup_s", median(setup_s_), "s", setup_s_.size());
  add("index_mib",
      static_cast<double>(std::filesystem::file_size(index_path_)) / 1048576.0,
      "MiB");
  add("rss_mib", rss_mib_, "MiB");
  const double failed_frac =
      static_cast<double>(failed()) / static_cast<double>(std::max<std::uint64_t>(1, attempted_));
  add("correct_frac", 1.0 - failed_frac, "ratio", attempted_);
  add("failed_frac", failed_frac, "ratio", attempted_);

  std::vector<Metric> layers = layer_;
  auto add_layer = [&](const char* name, double v, const char* unit,
                       std::size_t n = 0) { layers.push_back({name, v, unit, n}); };
  add_layer("gen.profile_s", median(gen_s_), "s", gen_s_.size());
  add_layer("core.build_s", median(build_s_), "s", build_s_.size());
  add_layer("core.build.vicinity_entries", vicinity_entries_, "count");
  add_layer("core.serialize.save_s", median(save_s_), "s", save_s_.size());
  add_layer("core.serialize.open_ms", median(open_ms_), "ms", open_ms_.size());
  if (!w_.served) {
    // An in-process workload never reaches the serving stack or the cache:
    // their per-layer metrics read 0.
    for (const MetricDef& d : kPerLayer) {
      const std::string name = d.name;
      if (name.rfind("net.", 0) == 0 || name.rfind("cache.", 0) == 0) {
        layers.push_back({name, 0.0, d.unit, 0});
      }
    }
  }

  auto print = [](const Metric& m) {
    std::printf("metric %s = %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
  };
  std::printf("workload %s seed %llu: index %.1f MiB on disk; "
              "memory_stats() %.1f MiB built on the heap, %.1f MiB mapped\n",
              w_.name, static_cast<unsigned long long>(a_.seed),
              static_cast<double>(std::filesystem::file_size(index_path_)) / 1048576.0,
              heap_mib_, mapped_mib_);
  // Wire latencies, their tails most, rise several-fold while the
  // hypervisor steals a few percent of the machine (perfbench/README.md).
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the "
              "run\n",
              100.0 * static_cast<double>(host1_.steal - host0_.steal) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, host1_.total - host0_.total)));
  std::printf("failures: bfs=%llu inproc=%llu",
              static_cast<unsigned long long>(failed_[kBfs]),
              static_cast<unsigned long long>(failed_[kInproc]));
  if (w_.served) {
    std::printf(" wire=%llu", static_cast<unsigned long long>(failed_[kWire]));
  }
  std::printf("\n");
  for (const Metric& m : all) print(m);
  if (a_.trace) {
    for (const Metric& m : layers) print(m);
  }

  // The result line: end-to-end metrics, or per-layer ones when traced.
  std::string json = "{";
  bool first = true;
  auto emit = [&](const std::vector<Metric>& from, const MetricDef& def) {
    const auto it = std::find_if(from.begin(), from.end(), [&](const Metric& m) {
      return m.name == def.name;
    });
    const std::string name = def.name;
    if (it == from.end()) {
      throw std::logic_error("metric not measured: " + name);
    }
    if (it->unit != def.unit) {
      throw std::logic_error("metric " + name + " measured in " + it->unit);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(it->value) ? it->value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  };
  if (a_.trace) {
    for (const MetricDef& d : kPerLayer) emit(layers, d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(all, d);
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed()), json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");
  if (w->served && args.daemon.empty()) usage("--daemon is required");
  try {
    Run run(*w, args);
    run.run();
    return run.report();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
