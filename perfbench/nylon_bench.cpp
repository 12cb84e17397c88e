// The benchmark program: runs one workload for --seconds of wall time in
// whole rounds, checks every round's outputs, and prints one JSON line
// {"correct", "attempted", "failed", "metrics"} as the last line of
// stdout. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 rounds alternate untraced / traced and the metrics are the
// per-layer ones, read from spans and from the program's exact counters
// (README.md lists them and what each should move).
//
//   nylon_bench --workload churn-serial --seed 1 --seconds 30 --trace 0
//   nylon_bench --workload paper-specs --seed 1 --seconds 30 --trace 1
//               --repo <checkout> --table layers.md
//   nylon_bench --make-reference perfbench/reference_k1.json
//
// Workloads (README.md gives the why):
//   churn-serial   one Nylon world of 8,000 peers, serial engine
//   churn-sharded  the same world on the sharded engine at K=2
//   paper-specs    six example specs plus sec5 over sim-frames
//
// Every runtime::scenario construction, including the hundreds made
// inside runtime::run_spec, passes through __wrap_ below (the link line
// adds -Wl,--wrap for the constructor and for scenario::oracle), so the
// program times universe builds and reads each spec world's totals
// without touching the library.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "metrics/graph_analysis.h"
#include "metrics/probe.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/scenario.h"
#include "runtime/spec.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/wall_timer.h"
#include "workload/engine.h"

using namespace nylon;
using namespace perfbench;

namespace {

/// Taken during static initialisation, i.e. as the process starts.
const std::chrono::steady_clock::time_point process_start =
    std::chrono::steady_clock::now();

double since_process_start() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_start)
      .count();
}

double resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size = 0;
  double resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- universe-build ledger (fed by the link-time wrappers) -----------------

struct build_ledger {
  double seconds = 0.0;       ///< summed construction wall time
  std::uint64_t worlds = 0;   ///< constructions
  double first_rss_delta = 0.0;  ///< resident bytes the first build added
  std::size_t first_peers = 0;
  double first_rss_after = 0.0;  ///< resident bytes after the first build
};
build_ledger g_builds;

/// When set, every scenario::oracle() call records the world's totals;
/// the last record per world is folded into `g_spec_tally` when the next
/// world is built (run_spec reads oracle() once a cell has finished).
bool g_tally_worlds = false;
std::optional<world_tally> g_last_world;
world_tally g_spec_tally;

void fold_last_world() {
  if (g_last_world.has_value()) g_spec_tally += *g_last_world;
  g_last_world.reset();
}

}  // namespace

#define SCENARIO_CTOR _ZN5nylon7runtime8scenarioC1ERKNS0_17experiment_configE
#define SCENARIO_ORACLE _ZNK5nylon7runtime8scenario6oracleEv
#define PB_CAT(a, b) a##b
#define PB_WRAP(sym) PB_CAT(__wrap_, sym)
#define PB_REAL(sym) PB_CAT(__real_, sym)

extern "C" {
void PB_REAL(SCENARIO_CTOR)(runtime::scenario* self,
                            const runtime::experiment_config& cfg);
metrics::reachability_oracle PB_REAL(SCENARIO_ORACLE)(
    const runtime::scenario* self);

void PB_WRAP(SCENARIO_CTOR)(runtime::scenario* self,
                            const runtime::experiment_config& cfg) {
  fold_last_world();
  const bool first = g_builds.worlds == 0;
  const double rss_before = first ? resident_bytes() : 0.0;
  const obs::trace_span span("bench:build");
  const util::wall_timer timer;
  PB_REAL(SCENARIO_CTOR)(self, cfg);
  g_builds.seconds += timer.seconds();
  ++g_builds.worlds;
  if (first) {
    g_builds.first_rss_after = resident_bytes();
    g_builds.first_rss_delta = g_builds.first_rss_after - rss_before;
    g_builds.first_peers = cfg.peer_count;
  }
}

metrics::reachability_oracle PB_WRAP(SCENARIO_ORACLE)(
    const runtime::scenario* self) {
  if (g_tally_worlds) g_last_world = tally_world(*self);
  return PB_REAL(SCENARIO_ORACLE)(self);
}
}  // extern "C"

namespace {

// --- workload definitions --------------------------------------------------

/// The churn world: bench_scale's program (warm-up, 10% NAT rebind,
/// Poisson churn with Pareto sessions, steady tail) at 8,000 peers, with
/// arrivals scaled from bench_scale's 50/s at 20,000 peers and shorter
/// phases so one round takes seconds, not half a minute.
struct churn_spec {
  std::size_t peers = 8000;
  std::size_t view = 15;
  std::int64_t warmup = 10;
  std::int64_t churn = 30;
  std::int64_t tail = 5;
  double arrivals = 20.0;
  double rebind = 0.1;
  std::int64_t session_periods = 20;

  [[nodiscard]] std::string key() const {
    std::ostringstream os;
    os << "n=" << peers << " view=" << view << " warmup=" << warmup
       << " churn=" << churn << " tail=" << tail << " arrivals=" << arrivals
       << " rebind=" << rebind << " pareto_mean=" << session_periods;
    return os.str();
  }
};
/// Every workload draws its inputs from seed --seed modulo world_seeds,
/// and reference_k1.json holds the K=1 digest and exact counts of each of
/// those churn worlds (`run.py --make-reference` remakes them), so each
/// churn-sharded run has its K=1 expectation in the file.
constexpr std::uint64_t world_seeds = 100;

/// Two workers plus the calling thread leave one of four cores free. K=3
/// filled all four, and over ten seeds its events/s spread by a fifth
/// whenever the host was busy.
constexpr std::size_t sharded_k = 2;

/// The paper-spec scale: explicit --n / --rounds over the default
/// profile, one seed, one thread.
constexpr std::size_t spec_peers = 200;
constexpr int spec_rounds = 40;

struct spec_job {
  std::string label;      ///< metric suffix and span name
  std::string file;       ///< examples/specs/<file>.json
  std::string transport;  ///< sim | sim-frames
};
const std::vector<spec_job> spec_jobs = {
    {"fig2_partition", "fig2_partition", "sim"},
    {"fig4_randomness", "fig4_randomness", "sim"},
    {"fig9_rvp_chain", "fig9_rvp_chain", "sim"},
    {"fig10_churn", "fig10_churn", "sim"},
    {"sec5_correctness", "sec5_correctness", "sim"},
    {"sec5_correctness_frames", "sec5_correctness", "sim-frames"},
    {"table1_traversal", "table1_traversal", "sim"},
};
/// sec5's sampling-randomness check is a runs test at p >= 0.01 on each
/// of six rows, so it fails on some seeds by construction (about one in
/// seventeen); the workload leaves it out of the specs it runs.
constexpr std::string_view seed_dependent_check = "check_sampling_random";
constexpr std::size_t sec5_check_entries = 12;   // 6 %NAT rows x 2 checks
constexpr std::size_t table1_check_entries = 16;  // 4 x 4 NAT pairs

// --- one round -------------------------------------------------------------

struct round_result {
  double wall_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t worlds = 0;      ///< spec worlds built
  std::uint64_t operations = 0;  ///< runs + worlds + checks evaluated
  std::uint64_t failed = 0;  ///< runs that threw, failed check-probe entries
  std::vector<check_result> checks;
  // Layer figures (read by traced rounds).
  obs::counter_snapshot counters;
  obs::epoch_profile profile;
  world_tally tally;
  exact_counts exact;
  std::map<std::string, double> spec_s;
};

exact_counts exact_of(const runtime::scenario& world, const world_tally& t,
                      const population& pop,
                      const obs::counter_snapshot& counters) {
  exact_counts e;
  e.digest = world.state_digest();
  auto& c = e.counts;
  c["events"] = world.events_executed();
  c["msgs_sent"] = t.msgs_sent;
  c["msgs_received"] = t.msgs_received;
  c["bytes_sent"] = t.bytes_sent;
  for (std::size_t r = 0; r < drop_reason_count; ++r) {
    const auto reason = static_cast<net::drop_reason>(r);
    c["drops." + std::string(net::to_string(reason))] = t.drops[r];
  }
  c["shuffles_initiated"] = t.shuffles_initiated;
  c["responses_received"] = t.responses_received;
  c["forwards"] = t.forwards;
  c["forward_drops"] = t.forward_drops;
  c["punches_started"] = t.punches_started;
  c["punches_completed"] = t.punches_completed;
  c["alive"] = pop.alive;
  c["joined"] = pop.joined;
  c["departed"] = pop.departed;
  for (const obs::counter k :
       {obs::counter::msg_request, obs::counter::msg_response,
        obs::counter::msg_open_hole, obs::counter::msg_ping,
        obs::counter::msg_pong, obs::counter::msg_other,
        obs::counter::nodes_added, obs::counter::nodes_removed}) {
    c["obs." + std::string(obs::to_string(k))] = counters[k];
  }
  return e;
}

/// Builds the churn world, runs its program, measures and checks it.
/// `exact` comparisons against a reference happen in the caller.
round_result churn_round(const churn_spec& cs, std::uint64_t seed,
                         std::size_t shards) {
  round_result r;
  const util::wall_timer wall;
  const double cpu0 = cpu_seconds();
  const double build0 = g_builds.seconds;

  runtime::experiment_config cfg;
  cfg.peer_count = cs.peers;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = cs.view;
  cfg.seed = seed;
  cfg.shards = shards;
  runtime::scenario world(cfg);
  r.build_s = g_builds.seconds - build0;

  const sim::sim_time period = cfg.gossip.shuffle_period;
  workload::session_distribution sessions;
  sessions.k = workload::session_distribution::kind::pareto;
  sessions.mean = cs.session_periods * period;
  auto labelled = [](workload::phase p, const char* label) {
    p.label = label;
    return p;
  };
  auto prog =
      workload::program{}
          .then(labelled(workload::steady(cs.warmup * period), "warmup"))
          .then(labelled(workload::nat_rebind(cs.rebind), "rebind"))
          .then(labelled(workload::poisson_churn(cs.churn * period,
                                                 cs.arrivals, sessions),
                         "churn"))
          .then(labelled(workload::steady(cs.tail * period), "tail"));
  workload::engine_options opt;
  opt.measure = false;  // population-counter snapshots only
  workload::engine eng(world, std::move(prog), opt);

  // Counters cover the run only, so msg_* and nodes_added line up with
  // the per-node traffic (construction sends nothing).
  obs::reset_counters();
  {
    const obs::trace_span span("bench:engine_run");
    const util::wall_timer run;
    eng.run();
    r.run_s = run.seconds();
  }
  r.events = world.events_executed();
  r.counters = obs::read_counters();
  r.profile = world.shard_profile();

  metrics::cluster_metrics clusters;
  {
    const obs::trace_span span("bench:measure");
    const auto oracle = world.oracle();
    clusters = metrics::measure_clusters(world.transport(), world.peers(),
                                         oracle);
  }
  const population pop{cs.peers, world.alive_count(), eng.joined(),
                       eng.departed()};
  {
    const obs::trace_span span("bench:digest");
    r.tally = tally_world(world);
    r.exact = exact_of(world, r.tally, pop, r.counters);
  }
  {
    const obs::trace_span span("bench:checks");
    // A message is in flight for at most one latency (50 ms) of a 5 s
    // shuffle period, so at the end fewer than one message per alive
    // peer can still be on the wire.
    r.checks.push_back(check_conservation(r.tally, pop.alive));
    r.checks.push_back(check_kind_counters(r.tally, r.counters));
    r.checks.push_back(check_bytes(r.tally));
    r.checks.push_back(check_population(pop, r.counters));
    r.checks.push_back(check_views(world));
    r.checks.push_back(check_single_cluster(clusters.biggest_cluster_pct));
  }
  r.wall_s = wall.seconds();
  r.cpu_s = cpu_seconds() - cpu0;
  r.operations = 1 + r.checks.size() + 1;  // world, checks, exact check
  return r;
}

/// The parsed specs, parallel to spec_jobs.
using spec_set = std::vector<runtime::experiment_spec>;

spec_set load_specs(const std::string& repo) {
  spec_set set;
  for (const spec_job& job : spec_jobs) {
    runtime::experiment_spec spec = runtime::load_spec_file(
        repo + "/examples/specs/" + job.file + ".json");
    std::erase_if(spec.checks, [](const runtime::spec_check& c) {
      return c.probe == seed_dependent_check;
    });
    set.push_back(std::move(spec));
  }
  return set;
}

round_result specs_round(const spec_set& set, std::uint64_t seed) {
  round_result r;
  const util::wall_timer wall;
  const double cpu0 = cpu_seconds();
  const double build0 = g_builds.seconds;
  const std::uint64_t worlds0 = g_builds.worlds;
  g_spec_tally = world_tally{};
  g_last_world.reset();
  obs::reset_counters();

  std::map<std::string, util::json> reports;
  std::map<std::string, std::string> texts;
  for (std::size_t i = 0; i < spec_jobs.size(); ++i) {
    const spec_job& job = spec_jobs[i];
    runtime::spec_options opt;
    opt.peers = spec_peers;
    opt.rounds = spec_rounds;
    opt.peers_explicit = true;
    opt.rounds_explicit = true;
    opt.seeds = 1;
    opt.seed = seed;
    opt.threads = 1;
    opt.transport = job.transport;
    std::ostringstream out;
    const obs::trace_span span(std::string_view("bench:spec:" + job.label));
    const util::wall_timer t;
    ++r.operations;
    try {
      reports[job.label] = runtime::run_spec(set[i], opt, out);
      texts[job.label] = out.str();
    } catch (const std::exception& e) {
      std::cerr << "# " << job.label << " threw: " << e.what() << "\n";
      ++r.failed;
    }
    r.spec_s[job.label] = t.seconds();
    r.run_s += r.spec_s[job.label];
  }
  fold_last_world();
  r.tally = g_spec_tally;
  r.build_s = g_builds.seconds - build0;
  r.worlds = g_builds.worlds - worlds0;
  r.counters = obs::read_counters();
  r.events = r.counters[obs::counter::events_executed];

  {
    const obs::trace_span span("bench:checks");
    const util::json empty = util::json::object();
    auto report = [&](const std::string& label) -> const util::json& {
      const auto it = reports.find(label);
      return it == reports.end() ? empty : it->second;
    };
    r.checks.push_back(check_spec_probes(
        "sec5", report("sec5_correctness"), sec5_check_entries));
    r.checks.push_back(check_spec_probes("sec5_frames",
                                         report("sec5_correctness_frames"),
                                         sec5_check_entries));
    r.checks.push_back(check_spec_probes(
        "table1", report("table1_traversal"), table1_check_entries));
    r.checks.push_back(report("fig4_randomness").find("table") != nullptr
                           ? check_fig4(report("fig4_randomness"))
                           : check_result{"fig4.nylon_above_baselines", false,
                                          "no fig4 report"});
    r.checks.push_back(check_frames_identical(
        texts["sec5_correctness"], texts["sec5_correctness_frames"]));
  }
  // Check-probe entries evaluated inside the specs count as operations,
  // and the ones that did not pass as failed operations.
  std::uint64_t probe_entries = 0;
  for (const auto& [label, rep] : reports) {
    const util::json* c = rep.find("checks");
    if (c == nullptr) continue;
    probe_entries += c->size();
    for (std::size_t j = 0; j < c->size(); ++j) {
      if (!c->at(j).at("passed").as_bool()) ++r.failed;
    }
  }
  r.operations += r.worlds + probe_entries + r.checks.size();
  r.wall_s = wall.seconds();
  r.cpu_s = cpu_seconds() - cpu0;
  return r;
}

// --- trace analysis --------------------------------------------------------

/// Self time per span name, and the worker wall time no span covers.
struct trace_summary {
  std::map<std::string, double> self_s;
  std::map<std::string, double> total_s;
  std::map<std::string, std::uint64_t> count;
  std::vector<double> worker_covered_s;  ///< per shard track
  std::size_t spans = 0;
  std::size_t dropped = 0;
};

/// Shard workers claim tid == shard index; other threads get auto tracks
/// from 1000 up (obs/trace.h).
constexpr std::int64_t first_auto_track = 1000;

trace_summary summarize_trace() {
  struct ev {
    std::string name;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
  };
  std::map<std::int64_t, std::vector<ev>> tracks;
  const util::json doc = obs::trace_to_json();
  for (const util::json& e : doc.at("traceEvents").array_items()) {
    if (e.at("ph").as_string() != "X") continue;
    tracks[e.at("tid").as_int()].push_back(
        ev{e.at("name").as_string(),
           static_cast<std::uint64_t>(e.at("ts").as_int()),
           static_cast<std::uint64_t>(e.at("dur").as_int())});
  }
  trace_summary s;
  const obs::trace_stats stats = obs::trace_statistics();
  s.spans = stats.recorded;
  s.dropped = stats.dropped;
  for (auto& [tid, evs] : tracks) {
    std::sort(evs.begin(), evs.end(), [](const ev& a, const ev& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    struct open_span {
      std::uint64_t end;
      std::string name;
    };
    std::vector<open_span> stack;
    double covered = 0.0;
    for (const ev& e : evs) {
      while (!stack.empty() && stack.back().end <= e.ts) stack.pop_back();
      const std::uint64_t end = e.ts + e.dur;
      if (stack.empty()) {
        covered += static_cast<double>(e.dur) * 1e-6;
      } else {
        const std::uint64_t inside = std::min(end, stack.back().end) - e.ts;
        s.self_s[stack.back().name] -= static_cast<double>(inside) * 1e-6;
      }
      s.self_s[e.name] += static_cast<double>(e.dur) * 1e-6;
      s.total_s[e.name] += static_cast<double>(e.dur) * 1e-6;
      ++s.count[e.name];
      stack.push_back(open_span{end, e.name});
    }
    if (tid < first_auto_track) s.worker_covered_s.push_back(covered);
  }
  return s;
}

// --- metrics ---------------------------------------------------------------

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< "num / den" for ratios (the table shows it)
};

struct layer_inputs {
  const round_result* traced = nullptr;
  trace_summary trace;
  double untraced_wall_s = 0.0;  ///< median over untraced rounds
  double traced_wall_s = 0.0;    ///< median over traced rounds
};

std::vector<metric> layer_metrics(const layer_inputs& in) {
  const round_result& r = *in.traced;
  const obs::counter_snapshot& c = r.counters;
  const obs::epoch_profile& p = r.profile;
  const trace_summary& tr = in.trace;
  auto span_total = [&](const std::string& name) {
    const auto it = tr.total_s.find(name);
    return it == tr.total_s.end() ? 0.0 : it->second;
  };
  auto span_self = [&](const std::string& name) {
    const auto it = tr.self_s.find(name);
    return it == tr.self_s.end() ? 0.0 : it->second;
  };
  auto span_count = [&](const std::string& name) {
    const auto it = tr.count.find(name);
    return it == tr.count.end() ? std::uint64_t{0} : it->second;
  };
  auto n = [&](obs::counter k) { return static_cast<double>(c[k]); };
  auto str = [](double v) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
  };
  std::vector<metric> m;
  auto add = [&](std::string name, double value, std::string unit,
                 std::string base = {}) {
    m.push_back(metric{std::move(name), value, std::move(unit),
                       std::move(base)});
  };

  // sim
  const double events = static_cast<double>(r.events);
  add("sim.events", events, "count");
  add("sim.queue_peak_depth", n(obs::counter::queue_peak_depth), "count");
  add("sim.pool_event_allocs", n(obs::counter::pool_event_allocs), "count");
  add("sim.pool_event_reuses", n(obs::counter::pool_event_reuses), "count");
  double work = 0.0;
  double wait = 0.0;
  double spins = 0.0;
  double parks = 0.0;
  for (const obs::shard_profile& sp : p.shards) {
    work += sp.work_s;
    wait += sp.wait_s;
    spins += static_cast<double>(sp.spin_waits);
    parks += static_cast<double>(sp.park_waits);
  }
  const double epochs = static_cast<double>(p.epochs);
  add("sim.epochs", epochs, "count");
  add("sim.events_per_epoch", p.events_per_epoch, "count",
      str(events) + " / " + str(epochs));
  add("sim.epoch_width_ms_mean", p.epoch_width_ms_mean, "ms");
  add("sim.shard_work_s", work, "s");
  add("sim.shard_wait_s", wait, "s");
  add("sim.barrier_overhead_pct", 100.0 * p.barrier_overhead(), "%",
      str(wait) + " / " + str(work + wait));
  add("sim.shard_imbalance", p.imbalance(), "ratio",
      "max work / mean work over " + std::to_string(p.shards.size()) +
          " shards");
  add("sim.spin_waits", spins, "count");
  add("sim.park_waits", parks, "count");
  add("sim.parks_per_epoch", ratio(parks, epochs), "count",
      str(parks) + " / " + str(epochs));
  double unattributed = 0.0;
  if (!tr.worker_covered_s.empty() && p.epochs > 0) {
    for (const double covered : tr.worker_covered_s) {
      unattributed += r.run_s - covered;
    }
    unattributed /= static_cast<double>(tr.worker_covered_s.size());
  }
  add("sim.unattributed_s", unattributed, "s",
      "run wall " + str(r.run_s) + " - worker span cover, mean over " +
          std::to_string(tr.worker_covered_s.size()) + " workers");
  add("sim.epoch_run_s", span_self("epoch:run") + span_self("epoch"), "s");
  add("sim.epoch_drain_s", span_self("epoch:drain"), "s");
  add("sim.barrier_mid_s", span_self("barrier:mid"), "s");
  add("sim.barrier_finish_s", span_self("barrier:finish"), "s");
  add("sim.drain_bytes_peak", n(obs::counter::drain_bytes_peak), "B");

  // runtime / workload / metrics
  const double build_s = span_total("bench:build");
  const double cells = static_cast<double>(span_count("cell"));
  add("runtime.build_s", build_s, "s");
  add("runtime.digest_s", span_total("bench:digest"), "s");
  add("runtime.cells", cells, "count");
  add("runtime.cell_build_s", cells > 0 ? build_s / cells : 0.0, "s",
      cells > 0 ? str(build_s) + " / " + str(cells) : std::string{});
  for (const spec_job& job : spec_jobs) {
    add("runtime.spec_s." + job.label, span_total("bench:spec:" + job.label),
        "s");
  }
  add("workload.warmup_s", span_total("phase:warmup"), "s");
  add("workload.rebind_s", span_total("phase:rebind"), "s");
  add("workload.churn_s", span_total("phase:churn"), "s");
  add("workload.tail_s", span_total("phase:tail"), "s");
  add("metrics.measure_s", span_total("bench:measure"), "s");
  double probe_s = 0.0;
  for (const auto& [name, self] : tr.self_s) {
    if (metrics::find_probe(name) != nullptr) probe_s += self;
  }
  add("metrics.probe_s", probe_s, "s");

  // net
  const world_tally& t = r.tally;
  const double sent = static_cast<double>(t.msgs_sent);
  const double delivered = static_cast<double>(t.msgs_received);
  add("net.msgs_sent", sent, "count");
  add("net.msgs_delivered", delivered, "count");
  add("net.delivered_ratio", ratio(delivered, sent), "ratio",
      str(delivered) + " / " + str(sent));
  add("net.bytes_sent", static_cast<double>(t.bytes_sent), "B");
  add("net.msg_request", n(obs::counter::msg_request), "count");
  add("net.msg_response", n(obs::counter::msg_response), "count");
  add("net.msg_open_hole", n(obs::counter::msg_open_hole), "count");
  add("net.msg_ping", n(obs::counter::msg_ping), "count");
  add("net.msg_pong", n(obs::counter::msg_pong), "count");
  const double filtered =
      static_cast<double>(t.drops_of(net::drop_reason::nat_filtered));
  add("net.drops_nat_filtered", filtered, "count");
  add("net.drops_dead_node",
      static_cast<double>(t.drops_of(net::drop_reason::dead_node)), "count");
  add("net.drops_unknown_destination",
      static_cast<double>(t.drops_of(net::drop_reason::unknown_destination)),
      "count");
  add("net.arena_bytes_peak", n(obs::counter::arena_bytes_peak), "B");

  // util
  const double probes = n(obs::counter::hash_probes);
  add("util.hash_probes", probes, "count");
  add("util.hash_probes_per_event", ratio(probes, events), "count",
      str(probes) + " / " + str(events));
  add("util.hash_rehashes", n(obs::counter::hash_rehashes), "count");

  // core
  const double punches = static_cast<double>(t.punches_started);
  const double punched = static_cast<double>(t.punches_completed);
  add("core.route_table_peak", n(obs::counter::route_table_peak), "count");
  add("core.punches_started", punches, "count");
  add("core.punch_success_ratio", ratio(punched, punches), "ratio",
      str(punched) + " / " + str(punches));
  add("core.forwards", static_cast<double>(t.forwards), "count");
  add("core.forward_drops", static_cast<double>(t.forward_drops), "count");

  // nat
  add("nat.nat_table_peak", n(obs::counter::nat_table_peak), "count");
  add("nat.filtered_ratio", ratio(filtered, sent), "ratio",
      str(filtered) + " / " + str(sent));

  // gossip
  const double initiated = static_cast<double>(t.shuffles_initiated);
  const double answered = static_cast<double>(t.responses_received);
  add("gossip.shuffles_initiated", initiated, "count");
  add("gossip.shuffle_completion_ratio", ratio(answered, initiated), "ratio",
      str(answered) + " / " + str(initiated));

  // wire
  const auto spec_time = [&](const std::string& label) {
    const auto it = r.spec_s.find(label);
    return it == r.spec_s.end() ? 0.0 : it->second;
  };
  add("wire.frames_overhead_s",
      spec_time("sec5_correctness_frames") - spec_time("sec5_correctness"),
      "s",
      str(spec_time("sec5_correctness_frames")) + " - " +
          str(spec_time("sec5_correctness")));

  // mem (first, cold build of the process)
  add("mem.rss_after_build_mb", g_builds.first_rss_after / (1024.0 * 1024.0),
      "MiB");
  add("mem.rss_bytes_per_peer",
      ratio(g_builds.first_rss_delta,
            static_cast<double>(g_builds.first_peers)),
      "B",
      str(g_builds.first_rss_delta) + " / " +
          std::to_string(g_builds.first_peers) + " peers");

  // obs
  add("obs.trace_overhead_pct",
      100.0 * (ratio(in.traced_wall_s, in.untraced_wall_s) - 1.0), "%",
      str(in.traced_wall_s) + " / " + str(in.untraced_wall_s) + " - 1");
  add("obs.trace_spans", static_cast<double>(tr.spans), "count");
  add("obs.trace_dropped", static_cast<double>(tr.dropped), "count");
  return m;
}

void write_table(const std::string& path, const std::string& workload,
                 const std::vector<metric>& metrics,
                 const trace_summary& trace) {
  std::ofstream out(path);
  out.precision(10);
  out << "# Per-layer table: " << workload << "\n\n"
      << "From one traced round; times are wall seconds, ratios give their "
         "base.\n\n"
      << "| metric | value | unit | base |\n|---|---|---|---|\n";
  for (const metric& m : metrics) {
    out << "| " << m.name << " | " << m.value << " | " << m.unit << " | "
        << m.base << " |\n";
  }
  out << "\n## Self time per span name\n\n"
      << "| span | count | total s | self s |\n|---|---|---|---|\n";
  for (const auto& [name, self] : trace.self_s) {
    out << "| " << name << " | " << trace.count.at(name) << " | "
        << trace.total_s.at(name) << " | " << self << " |\n";
  }
  out << "\nspans recorded " << trace.spans << ", dropped " << trace.dropped
      << "\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
  util::json doc = util::json::object();
  doc["correct"] = correct;
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  util::json& ms = doc["metrics"] = util::json::object();
  for (const metric& m : metrics) {
    util::json& entry = ms[m.name] = util::json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
  }
  std::cout << doc.dump_string(0) << std::endl;
}

// --- K=1 reference ---------------------------------------------------------

struct reference_file {
  std::string key;
  std::map<std::uint64_t, exact_counts> seeds;
};

std::optional<reference_file> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  const util::json doc = util::json::parse(text.str());
  reference_file ref;
  ref.key = doc.at("workload").as_string();
  for (const auto& [seed, counts] : doc.at("seeds").object_items()) {
    ref.seeds[std::stoull(seed)] = exact_counts::from_json(counts);
  }
  return ref;
}

int make_reference(const std::string& path) {
  const churn_spec cs;
  util::json doc = util::json::object();
  doc["workload"] = cs.key();
  doc["shards"] = 1;
  util::json& seeds = doc["seeds"] = util::json::object();
  for (std::uint64_t s = 0; s < world_seeds; ++s) {
    const round_result r = churn_round(cs, s, 1);
    std::cerr << "# reference seed " << s << ": "
              << r.exact.to_json().at("digest").as_string() << "\n";
    seeds[std::to_string(s)] = r.exact.to_json();
  }
  util::write_json_file(path, doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  const auto* workload = flags.add_string(
      "workload", "", "churn-serial | churn-sharded | paper-specs");
  const auto* seed = flags.add_int(
      "seed", 1, "workload seed (taken modulo 100)");
  const auto* seconds =
      flags.add_double("seconds", 10.0, "wall seconds of whole rounds");
  const auto* trace = flags.add_int("trace", 0, "1 = per-layer metrics");
  const auto* repo = flags.add_string("repo", ".", "checkout root");
  const auto* reference = flags.add_string(
      "reference", "", "K=1 reference file for churn-sharded");
  const auto* table =
      flags.add_string("table", "", "per-layer table path (--trace 1)");
  const auto* make_ref = flags.add_string(
      "make-reference", "", "write the K=1 reference file and exit");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << flags.usage("nylon_bench");
    return 2;
  }
  if (!make_ref->empty()) return make_reference(*make_ref);

  const bool sharded = *workload == "churn-sharded";
  const bool churn = sharded || *workload == "churn-serial";
  if (!churn && *workload != "paper-specs") {
    std::cerr << "unknown --workload '" << *workload << "'\n"
              << flags.usage("nylon_bench");
    return 2;
  }
  if (*seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1)) {
    std::cerr << "--seed must be >= 0, --seconds > 0, --trace 0 or 1\n";
    return 2;
  }
  const std::uint64_t world_seed =
      static_cast<std::uint64_t>(*seed) % world_seeds;
  const bool traced_run = *trace == 1;

  const churn_spec cs;
  std::optional<spec_set> specs;
  std::optional<reference_file> ref;
  try {
    if (churn) {
      if (sharded) ref = load_reference(*reference);
    } else {
      specs = load_specs(*repo);
    }
  } catch (const std::exception& e) {
    std::cerr << "set-up failed: " << e.what() << "\n";
    return 1;
  }
  const double pre_round_s = since_process_start();

  // Whole rounds until --seconds have passed. A traced run alternates
  // untraced and traced rounds so both medians come from one process.
  std::vector<round_result> rounds;
  std::vector<bool> traced;
  trace_summary last_trace;
  std::size_t last_traced = 0;
  const util::wall_timer budget;
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = traced_run && i % 2 == 1;
    if (trace_this) obs::start_trace(std::size_t{1} << 17);
    g_tally_worlds = trace_this && !churn;  // churn rounds tally directly
    rounds.push_back(churn
                         ? churn_round(cs, world_seed, sharded ? sharded_k : 0)
                         : specs_round(*specs, world_seed));
    traced.push_back(trace_this);
    if (trace_this) {
      obs::stop_trace();
      last_trace = summarize_trace();
      last_traced = i;
    }
    const bool have_both = !traced_run || rounds.size() >= 2;
    if (budget.seconds() >= *seconds && have_both) break;
  }
  const double peak_rss = peak_rss_mib();

  // Exact cross-checks: every churn round against the reference — the
  // K=1 world for churn-sharded, the first round for churn-serial. A
  // reference file that is missing, made for another workload or short
  // of the world seed fails the check.
  if (churn) {
    exact_counts want = rounds.front().exact;
    std::string name = "repeat_exact";
    std::string fault;
    if (sharded) {
      name = "k1_reference";
      if (!ref.has_value()) {
        fault = "cannot read reference file '" + *reference + "'";
      } else if (ref->key != cs.key()) {
        fault = "reference file is for '" + ref->key + "', the workload is '" +
                cs.key() + "'; run --make-reference";
      } else if (ref->seeds.count(world_seed) == 0) {
        fault = "reference file lacks seed " + std::to_string(world_seed) +
                "; run --make-reference";
      } else {
        want = ref->seeds.at(world_seed);
      }
    }
    for (round_result& r : rounds) {
      r.checks.push_back(fault.empty() ? check_exact(name, r.exact, want)
                                       : check_result{name, false, fault});
    }
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const round_result& r : rounds) {
    attempted += r.operations;
    failed += r.failed;
    for (const check_result& c : r.checks) {
      if (!c.passed) {
        correct = false;
        ++failed;
        std::cerr << "CHECK FAILED " << c.name << ": " << c.detail << "\n";
      }
    }
  }
  for (const check_result& c : rounds.front().checks) {
    std::cerr << "# check " << c.name << ": " << c.detail << "\n";
  }

  std::vector<double> wall;
  std::vector<double> traced_wall;
  std::vector<double> eps;
  std::vector<double> cpu;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const round_result& r = rounds[i];
    (traced[i] ? traced_wall : wall).push_back(r.wall_s);
    if (traced[i]) continue;
    eps.push_back(ratio(static_cast<double>(r.events), r.run_s));
    cpu.push_back(r.cpu_s);
  }
  std::cerr << "# " << *workload << " seed " << world_seed << ": "
            << rounds.size() << " rounds, wall s:";
  for (const round_result& r : rounds) std::cerr << " " << r.wall_s;
  std::cerr << "; build s:";
  for (const round_result& r : rounds) std::cerr << " " << r.build_s;
  std::cerr << "\n";

  std::vector<metric> out;
  if (!traced_run) {
    out.push_back({"wall_s", median(wall), "s", {}});
    // One cold set-up per process: from its start through the builds of
    // its first round. The later rounds' builds are warm, and another thing.
    out.push_back({"setup_s", pre_round_s + rounds.front().build_s, "s", {}});
    out.push_back({"events_per_s", median(eps), "events/s", {}});
    out.push_back({"cpu_s", median(cpu), "s", {}});
    out.push_back({"peak_rss_mb", peak_rss, "MiB", {}});
  } else {
    // Tracing overhead compares warm rounds: the first round of the
    // process is cold and untraced, so it is left out when others exist.
    const std::vector<double> warm(wall.size() > 1 ? wall.begin() + 1
                                                   : wall.begin(),
                                   wall.end());
    layer_inputs in;
    in.traced = &rounds[last_traced];
    in.trace = last_trace;
    in.untraced_wall_s = median(warm);
    in.traced_wall_s = median(traced_wall);
    out = layer_metrics(in);
    if (!table->empty()) write_table(*table, *workload, out, last_trace);
  }
  print_result(correct, attempted, failed, out);
  return 0;
}
