// Self-test of the benchmark's checks: each check accepts a sound input
// and rejects a doctored one. Exits non-zero when any check fails to
// tell the two apart.
//
//   python3 perfbench/run.py --selftest
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"

using namespace nylon;
using namespace perfbench;

namespace {

int mistakes = 0;

void expect(const std::string& what, const check_result& r, bool want) {
  const bool ok = r.passed == want;
  if (!ok) ++mistakes;
  std::cout << (ok ? "ok   " : "FAIL ") << what << " -> "
            << (r.passed ? "accepted" : "rejected") << " (" << r.detail
            << ")\n";
}

void expect_view(const std::string& what, const std::string& fault,
                 bool want_sound) {
  const bool ok = fault.empty() == want_sound;
  if (!ok) ++mistakes;
  std::cout << (ok ? "ok   " : "FAIL ") << what << " -> "
            << (fault.empty() ? "accepted" : "rejected: " + fault) << "\n";
}

util::json spec_report(std::vector<bool> verdicts) {
  util::json report = util::json::object();
  util::json& checks = report["checks"] = util::json::array();
  for (const bool passed : verdicts) {
    util::json& e = checks.push_back(util::json::object());
    e["check"] = "check_connected";
    e["passed"] = passed;
    e["detail"] = passed ? "clusters=1" : "clusters=2";
  }
  return report;
}

util::json fig4_report(double nylon_at_50) {
  util::json report = util::json::object();
  util::json& table = report["table"] = util::json::object();
  util::json& headers = table["headers"] = util::json::array();
  for (const char* h : {"%NAT", "baseline view=8", "baseline view=15",
                        "nylon view=8"}) {
    headers.push_back(h);
  }
  util::json& rows = table["rows"] = util::json::array();
  for (int pct = 0; pct <= 100; pct += 10) {
    util::json& row = rows.push_back(util::json::array());
    const double nylon = pct == 50 ? nylon_at_50 : 0.9 * pct;
    row.push_back(std::to_string(pct));
    row.push_back(std::to_string(0.2 * pct));
    row.push_back(std::to_string(0.1 * pct));
    row.push_back(std::to_string(nylon));
  }
  return report;
}

}  // namespace

int main() {
  // Message accounting: 1000 sent, 960 received, 30 lost, 10 in flight.
  world_tally t;
  t.msgs_sent = 1000;
  t.msgs_received = 960;
  t.drops[static_cast<std::size_t>(net::drop_reason::nat_filtered)] = 30;
  t.drops[static_cast<std::size_t>(net::drop_reason::sender_dead)] = 7;
  t.bytes_sent = t.bytes_by_kind = 123456;
  expect("conservation, 10 in flight", check_conservation(t, 100), true);
  world_tally short_sent = t;
  short_sent.msgs_sent = t.msgs_received + 30 - 1;  // sent off by one
  expect("conservation, sent one short", check_conservation(short_sent, 100),
         false);
  expect("conservation, in flight over bound", check_conservation(t, 9),
         false);

  obs::counter_snapshot counters;
  counters.values[static_cast<std::size_t>(obs::counter::msg_request)] = 600;
  counters.values[static_cast<std::size_t>(obs::counter::msg_response)] = 400;
  expect("kind counters equal", check_kind_counters(t, counters), true);
  world_tally one_more = t;
  ++one_more.msgs_sent;  // sent total off by one
  expect("kind counters, sent off by one",
         check_kind_counters(one_more, counters), false);

  expect("byte totals equal", check_bytes(t), true);
  world_tally bytes_off = t;
  ++bytes_off.bytes_by_kind;
  expect("byte totals off by one", check_bytes(bytes_off), false);

  obs::counter_snapshot pop_counters;
  pop_counters.values[static_cast<std::size_t>(obs::counter::nodes_added)] =
      40;
  pop_counters.values[static_cast<std::size_t>(obs::counter::nodes_removed)] =
      25;
  expect("population adds up",
         check_population(population{100, 115, 40, 25}, pop_counters), true);
  expect("population one peer short",
         check_population(population{100, 114, 40, 25}, pop_counters), false);

  // Views of peer 7 in a 20-node world, capacity 4.
  const std::vector<net::node_id> sound = {1, 2, 3};
  const std::vector<net::node_id> duplicate = {1, 2, 2};
  const std::vector<net::node_id> self_entry = {1, 7};
  const std::vector<net::node_id> too_many = {1, 2, 3, 4, 5};
  const std::vector<net::node_id> unknown_id = {1, 20};
  expect_view("view sound", view_fault(7, 4, sound, 20), true);
  expect_view("view with a duplicate id", view_fault(7, 4, duplicate, 20),
              false);
  expect_view("view with a self entry", view_fault(7, 4, self_entry, 20),
              false);
  expect_view("view over capacity", view_fault(7, 4, too_many, 20), false);
  expect_view("view naming an id >= node_count",
              view_fault(7, 4, unknown_id, 20), false);

  expect("single cluster", check_single_cluster(100.0), true);
  expect("split cluster", check_single_cluster(99.9), false);

  exact_counts k1;
  k1.digest = 0xbf5c0fe6200a8b82ULL;
  k1.counts = {{"events", 11078577}, {"msgs_sent", 386538}};
  exact_counts sharded = k1;
  expect("sharded run equals the K=1 reference",
         check_exact("k1", sharded, k1), true);
  sharded.digest ^= 1;
  expect("sharded digest unlike the K=1 reference",
         check_exact("k1", sharded, k1), false);
  exact_counts sharded_count = k1;
  ++sharded_count.counts["events"];
  expect("sharded event count off by one",
         check_exact("k1", sharded_count, k1), false);
  exact_counts round_trip = exact_counts::from_json(k1.to_json());
  expect("reference survives its JSON form", check_exact("k1", round_trip, k1),
         true);

  expect("check probes all passed",
         check_spec_probes("sec5", spec_report({true, true, true}), 3), true);
  expect("a failed check probe",
         check_spec_probes("sec5", spec_report({true, false, true}), 3),
         false);
  expect("check probes missing",
         check_spec_probes("sec5", spec_report({true, true}), 3), false);

  expect("fig4 nylon above baselines", check_fig4(fig4_report(45.0)), true);
  expect("fig4 nylon under a baseline at 50%", check_fig4(fig4_report(9.0)),
         false);

  expect("frames table identical", check_frames_identical("a\nb\n", "a\nb\n"),
         true);
  expect("frames table differs", check_frames_identical("a\nb\n", "a\nc\n"),
         false);

  std::cout << (mistakes == 0 ? "selftest: every check tells sound from "
                                "doctored input\n"
                              : "selftest: " + std::to_string(mistakes) +
                                    " check(s) misjudged\n");
  return mistakes == 0 ? 0 : 1;
}
