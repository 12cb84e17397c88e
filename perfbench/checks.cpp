#include "checks.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "gossip/peer.h"

namespace perfbench {

using namespace nylon;

namespace {

check_result verdict(std::string name, bool passed, std::string detail) {
  return check_result{std::move(name), passed, std::move(detail)};
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

std::uint64_t world_tally::total_drops() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t d : drops) sum += d;
  return sum;
}

world_tally& world_tally::operator+=(const world_tally& o) noexcept {
  msgs_sent += o.msgs_sent;
  msgs_received += o.msgs_received;
  bytes_sent += o.bytes_sent;
  bytes_by_kind += o.bytes_by_kind;
  for (std::size_t i = 0; i < drops.size(); ++i) drops[i] += o.drops[i];
  shuffles_initiated += o.shuffles_initiated;
  responses_received += o.responses_received;
  forwards += o.forwards;
  forward_drops += o.forward_drops;
  punches_started += o.punches_started;
  punches_completed += o.punches_completed;
  return *this;
}

world_tally tally_world(const runtime::scenario& world) {
  world_tally t;
  const net::transport& tr = world.transport();
  for (net::node_id id = 0; id < tr.node_count(); ++id) {
    const net::node_traffic& nt = tr.traffic(id);
    t.msgs_sent += nt.msgs_sent;
    t.msgs_received += nt.msgs_received;
    t.bytes_sent += nt.bytes_sent;
  }
  constexpr auto kinds = static_cast<std::size_t>(net::message_kind::count_);
  for (std::size_t k = 0; k < kinds; ++k) {
    t.bytes_by_kind += tr.bytes_by_kind(static_cast<net::message_kind>(k));
  }
  for (std::size_t r = 0; r < drop_reason_count; ++r) {
    t.drops[r] = tr.drops(static_cast<net::drop_reason>(r));
  }
  for (const auto& p : world.peers()) {
    if (p == nullptr) continue;
    const gossip::shuffle_stats& s = p->stats();
    t.shuffles_initiated += s.initiated;
    t.responses_received += s.responses_received;
    t.forwards += s.messages_forwarded;
    t.forward_drops += s.forward_drops;
  }
  const runtime::punch_stat_totals punches = world.punch_totals();
  t.punches_started = punches.started;
  t.punches_completed = punches.completed;
  return t;
}

check_result check_conservation(const world_tally& t,
                                std::uint64_t in_flight_bound) {
  const std::uint64_t lost =
      t.total_drops() - t.drops_of(net::drop_reason::sender_dead);
  const auto in_flight = static_cast<std::int64_t>(t.msgs_sent) -
                         static_cast<std::int64_t>(t.msgs_received) -
                         static_cast<std::int64_t>(lost);
  std::ostringstream d;
  d << "sent=" << t.msgs_sent << " received=" << t.msgs_received
    << " dropped=" << lost << " in_flight=" << in_flight
    << " bound=" << in_flight_bound;
  return verdict("message_conservation",
                 in_flight >= 0 &&
                     static_cast<std::uint64_t>(in_flight) <= in_flight_bound,
                 d.str());
}

check_result check_kind_counters(const world_tally& t,
                                 const obs::counter_snapshot& counters) {
  const std::uint64_t by_kind = counters.messages_total();
  return verdict("kind_counters", by_kind == t.msgs_sent,
                 "obs msg_* sum=" + std::to_string(by_kind) +
                     " per-node msgs_sent=" + std::to_string(t.msgs_sent));
}

check_result check_bytes(const world_tally& t) {
  return verdict("byte_totals", t.bytes_sent == t.bytes_by_kind,
                 "per-node bytes_sent=" + std::to_string(t.bytes_sent) +
                     " bytes_by_kind=" + std::to_string(t.bytes_by_kind));
}

check_result check_population(const population& p,
                              const obs::counter_snapshot& counters) {
  const std::uint64_t added = counters[obs::counter::nodes_added];
  const std::uint64_t removed = counters[obs::counter::nodes_removed];
  const bool alive_ok = p.alive + p.departed == p.initial + p.joined;
  const bool obs_ok = added + p.departed == removed + p.joined;
  std::ostringstream d;
  d << "alive=" << p.alive << " initial=" << p.initial
    << " joined=" << p.joined << " departed=" << p.departed
    << " obs added=" << added << " removed=" << removed;
  return verdict("population", alive_ok && obs_ok, d.str());
}

std::string view_fault(net::node_id self, std::size_t capacity,
                       std::span<const net::node_id> ids,
                       std::size_t node_count) {
  if (ids.size() > capacity) {
    return "peer " + std::to_string(self) + " holds " +
           std::to_string(ids.size()) + " entries > capacity " +
           std::to_string(capacity);
  }
  std::vector<net::node_id> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const net::node_id id = sorted[i];
    if (id == self) return "peer " + std::to_string(self) + " names itself";
    if (id >= node_count) {
      return "peer " + std::to_string(self) + " names id " +
             std::to_string(id) + " >= node_count " +
             std::to_string(node_count);
    }
    if (i > 0 && sorted[i - 1] == id) {
      return "peer " + std::to_string(self) + " names id " +
             std::to_string(id) + " twice";
    }
  }
  return {};
}

check_result check_views(const runtime::scenario& world) {
  const net::transport& tr = world.transport();
  std::size_t checked = 0;
  std::size_t faulty = 0;
  std::string first;
  std::vector<net::node_id> ids;
  for (const auto& p : world.peers()) {
    if (p == nullptr || !tr.alive(p->id())) continue;
    const gossip::view& v = p->current_view();
    ids.clear();
    for (const gossip::view_entry& e : v.entries()) ids.push_back(e.peer.id);
    const std::string fault =
        view_fault(p->id(), v.capacity(), ids, tr.node_count());
    ++checked;
    if (!fault.empty()) {
      if (faulty == 0) first = fault;
      ++faulty;
    }
  }
  return verdict("views", faulty == 0 && checked > 0,
                 std::to_string(faulty) + " of " + std::to_string(checked) +
                     " alive views faulty" +
                     (first.empty() ? "" : " (first: " + first + ")"));
}

check_result check_single_cluster(double biggest_cluster_pct) {
  return verdict("single_cluster", biggest_cluster_pct == 100.0,
                 "biggest cluster " + std::to_string(biggest_cluster_pct) +
                     "% of alive peers");
}

util::json exact_counts::to_json() const {
  util::json doc = util::json::object();
  doc["digest"] = hex(digest);
  util::json& c = doc["counts"] = util::json::object();
  for (const auto& [name, value] : counts) c[name] = value;
  return doc;
}

exact_counts exact_counts::from_json(const util::json& doc) {
  exact_counts out;
  out.digest = std::stoull(doc.at("digest").as_string(), nullptr, 16);
  for (const auto& [name, value] : doc.at("counts").object_items()) {
    out.counts[name] = static_cast<std::uint64_t>(value.as_int());
  }
  return out;
}

check_result check_exact(const std::string& name, const exact_counts& got,
                         const exact_counts& want) {
  if (got.digest != want.digest) {
    return verdict(name, false,
                   "digest " + hex(got.digest) + " != " + hex(want.digest));
  }
  if (got.counts.size() != want.counts.size()) {
    return verdict(name, false,
                   std::to_string(got.counts.size()) + " counts vs " +
                       std::to_string(want.counts.size()));
  }
  for (const auto& [key, value] : want.counts) {
    const auto it = got.counts.find(key);
    if (it == got.counts.end()) return verdict(name, false, key + " missing");
    if (it->second != value) {
      return verdict(name, false,
                     key + " " + std::to_string(it->second) +
                         " != " + std::to_string(value));
    }
  }
  return verdict(name, true,
                 "digest " + hex(got.digest) + " and " +
                     std::to_string(got.counts.size()) + " counts equal");
}

check_result check_spec_probes(const std::string& spec,
                               const util::json& report,
                               std::size_t expected) {
  const util::json* checks = report.find("checks");
  const std::size_t n = checks != nullptr ? checks->size() : 0;
  std::size_t failed = 0;
  std::string first;
  for (std::size_t i = 0; i < n; ++i) {
    const util::json& entry = checks->at(i);
    if (entry.at("passed").as_bool()) continue;
    if (failed++ == 0) {
      first = entry.at("check").as_string() + ": " +
              entry.at("detail").as_string();
    }
  }
  const bool count_ok = n > 0 && (expected == 0 || n == expected);
  return verdict(spec + ".checks", count_ok && failed == 0,
                 std::to_string(n - failed) + " of " + std::to_string(n) +
                     " check probes passed" +
                     (first.empty() ? "" : " (first failure: " + first + ")"));
}

check_result check_fig4(const util::json& report) {
  const util::json& table = report.at("table");
  const util::json& headers = table.at("headers");
  // Column positions by header text, so a reordered spec still checks.
  auto column = [&](const std::string& prefix) -> std::size_t {
    for (std::size_t i = 0; i < headers.size(); ++i) {
      if (headers.at(i).as_string().rfind(prefix, 0) == 0) return i;
    }
    return headers.size();
  };
  std::vector<std::size_t> baselines;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (headers.at(i).as_string().rfind("baseline", 0) == 0) {
      baselines.push_back(i);
    }
  }
  const std::size_t nylon = column("nylon");
  if (baselines.size() != 2 || nylon == headers.size()) {
    return verdict("fig4.nylon_above_baselines", false,
                   "table lacks the two baseline columns or the nylon one");
  }
  std::size_t rows = 0;
  for (const util::json& row : table.at("rows").array_items()) {
    const double nat_pct = std::stod(row.at(0).as_string());
    if (nat_pct < 10 || nat_pct > 90) continue;
    ++rows;
    const double ny = std::stod(row.at(nylon).as_string());
    for (const std::size_t b : baselines) {
      const double base = std::stod(row.at(b).as_string());
      if (!(ny > base)) {
        return verdict("fig4.nylon_above_baselines", false,
                       "at " + row.at(0).as_string() + "% NAT nylon " +
                           row.at(nylon).as_string() + " <= " +
                           headers.at(b).as_string() + " " +
                           row.at(b).as_string());
      }
    }
  }
  return verdict("fig4.nylon_above_baselines", rows == 9,
                 "nylon above both baselines at " + std::to_string(rows) +
                     " of 9 %NAT rows (10..90)");
}

check_result check_frames_identical(const std::string& plain,
                                    const std::string& frames) {
  const bool same = !plain.empty() && plain == frames;
  return verdict("sec5.frames_identical", same,
                 same ? std::to_string(plain.size()) + " bytes identical"
                      : "sim-frames table differs from the plain one");
}

}  // namespace perfbench
