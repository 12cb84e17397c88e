// Correctness checks of the benchmark. Each one compares totals reached
// by independent paths (per-node counters against the telemetry
// counters, population arithmetic against the transport) or a property
// the method must have (a view never names its owner twice; Nylon keeps
// one cluster under churn). None compares against a stored copy of an
// earlier run's output, except the sharded workload's K=1 reference,
// which the determinism contract makes equal for every shard count.
//
// Every check but check_views takes plain records rather than a live
// world, so that selftest.cpp can feed each one a doctored input
// (check_views applies view_fault, which the self-test feeds, to every
// alive peer).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "net/node_id.h"
#include "net/transport.h"
#include "obs/counters.h"
#include "runtime/scenario.h"
#include "util/json.h"

namespace perfbench {

inline constexpr std::size_t drop_reason_count =
    static_cast<std::size_t>(nylon::net::drop_reason::count_);

/// Network, gossip and traversal totals of one world, summed over every
/// node it ever created (dead nodes keep their counters).
struct world_tally {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_by_kind = 0;  ///< transport's per-kind byte blocks
  std::array<std::uint64_t, drop_reason_count> drops{};
  std::uint64_t shuffles_initiated = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t forwards = 0;
  std::uint64_t forward_drops = 0;
  std::uint64_t punches_started = 0;
  std::uint64_t punches_completed = 0;

  [[nodiscard]] std::uint64_t drops_of(
      nylon::net::drop_reason r) const noexcept {
    return drops[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint64_t total_drops() const noexcept;
  world_tally& operator+=(const world_tally& other) noexcept;
};

/// Reads the tally of a parked world.
[[nodiscard]] world_tally tally_world(const nylon::runtime::scenario& world);

/// Population figures of one churn round.
struct population {
  std::uint64_t initial = 0;  ///< peers built with the world
  std::uint64_t alive = 0;    ///< scenario::alive_count() at the end
  std::uint64_t joined = 0;   ///< workload engine joins
  std::uint64_t departed = 0; ///< workload engine departures
};

struct check_result {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// Σ sent = Σ received + (drops other than sender_dead) + in flight,
/// with 0 <= in flight <= `in_flight_bound`.
[[nodiscard]] check_result check_conservation(const world_tally& t,
                                              std::uint64_t in_flight_bound);

/// The telemetry msg_* counters, summed over kinds, equal Σ per-node
/// msgs_sent (counters must be scoped to the whole life of the world's
/// traffic).
[[nodiscard]] check_result check_kind_counters(
    const world_tally& t, const nylon::obs::counter_snapshot& counters);

/// Σ per-node bytes_sent equals the transport's Σ bytes_by_kind.
[[nodiscard]] check_result check_bytes(const world_tally& t);

/// alive = initial + joined - departed, and the telemetry's
/// nodes_added - nodes_removed (scoped to the run) = joined - departed.
[[nodiscard]] check_result check_population(
    const population& p, const nylon::obs::counter_snapshot& counters);

/// One peer's view: within capacity, no self entry, no duplicate id, and
/// every id below `node_count`. Empty string when sound.
[[nodiscard]] std::string view_fault(
    nylon::net::node_id self, std::size_t capacity,
    std::span<const nylon::net::node_id> ids, std::size_t node_count);

/// view_fault over every alive peer of `world`.
[[nodiscard]] check_result check_views(const nylon::runtime::scenario& world);

/// The biggest cluster holds every alive peer.
[[nodiscard]] check_result check_single_cluster(double biggest_cluster_pct);

/// Exact per-run counts, keyed by name; `digest` is state_digest().
struct exact_counts {
  std::uint64_t digest = 0;
  std::map<std::string, std::uint64_t> counts;

  [[nodiscard]] nylon::util::json to_json() const;
  [[nodiscard]] static exact_counts from_json(const nylon::util::json& doc);
};

/// Digest and every count of `got` equal those of `want` (same key set).
[[nodiscard]] check_result check_exact(const std::string& name,
                                       const exact_counts& got,
                                       const exact_counts& want);

/// A run_spec report carries check entries and every one passed.
/// `expected` > 0 also pins how many entries there must be.
[[nodiscard]] check_result check_spec_probes(const std::string& spec,
                                             const nylon::util::json& report,
                                             std::size_t expected);

/// fig4_randomness: at every %NAT from 10 to 90 Nylon's natted share of
/// usable references exceeds both baselines'.
[[nodiscard]] check_result check_fig4(const nylon::util::json& report);

/// The sim-frames rendering of a spec is byte-identical to the plain one.
[[nodiscard]] check_result check_frames_identical(const std::string& plain,
                                                  const std::string& frames);

}  // namespace perfbench
