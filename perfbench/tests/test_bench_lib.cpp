// Unit tests of the benchmark's own helpers: order statistics, pass
// throughput from per-run medians, the sampled timer's scale-up, run-stat
// aggregation, and the pinned-fingerprint table. Usage: perfbench_tests
// [fingerprints-file]; with a file it also checks that the pins agree with
// the simulator's golden cycle counts.
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_lib.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what, int line) {
  if (ok) return;
  ++g_failures;
  std::cerr << "test_bench_lib.cpp:" << line << ": FAILED " << what << '\n';
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

bool throws(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

void test_quantile_matches_python() {
  // Reference values from statistics.quantiles(v, n=10 or 4,
  // method="inclusive") and statistics.median(v).
  const std::vector<double> a = {5, 1, 4, 2, 3, 10, 7};
  EXPECT(near(quantile(a, 0.1), 1.6) && near(quantile(a, 0.9), 8.2));
  EXPECT(near(quantile(a, 0.25), 2.5) && near(quantile(a, 0.75), 6.0));
  EXPECT(quantile(a, 0.5) == 4.0);
  const std::vector<double> b = {2.5, 0.5, 1.5, 3.5, 9.0, 4.0, 6.0, 7.5, 8.0, 1.0};
  EXPECT(near(quantile(b, 0.1), 0.95) && near(quantile(b, 0.9), 8.1));
  EXPECT(near(quantile(b, 0.25), 1.75) && near(quantile(b, 0.75), 7.125));
  EXPECT(near(quantile(b, 0.5), 3.75));  // mean of the two middle values
  EXPECT(near(quantile({1, 2}, 0.1), 1.1) && near(quantile({1, 2}, 0.9), 1.9));
  std::vector<double> c;
  for (int i = 1; i <= 13; ++i) c.push_back(i);
  EXPECT(near(quantile(c, 0.1), 2.2) && near(quantile(c, 0.9), 11.8));
  EXPECT(quantile(c, 0.5) == 7.0);
  // The ends are the extremes; one value is its own quantile.
  EXPECT(quantile(c, 0.0) == 1.0 && quantile(c, 1.0) == 13.0);
  EXPECT(quantile({7}, 0.1) == 7.0 && quantile({}, 0.9) == 0.0);
}

void test_pass_throughput() {
  // Run A: 300 cycles, median 2 s despite one 50 s outlier; run B: 100
  // cycles, median 2 s. (300 + 100) / (2 + 2).
  EXPECT(near(pass_throughput({{300, {2.0, 50.0, 1.0}}, {100, {2.0, 2.0}}}),
              100.0));
  // A run without samples adds neither cycles nor time.
  EXPECT(near(pass_throughput({{300, {3.0}}, {999, {}}}), 100.0));
  EXPECT(pass_throughput({}) == 0.0 && pass_throughput({{5, {}}}) == 0.0);
}

void test_sampler() {
  CycleSampler never(0);
  CycleSampler every(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT(!never.take());
    EXPECT(every.take());
  }
  EXPECT(never.cycles() == 1000 && never.sampled() == 0);
  EXPECT(every.sampled() == 1000);

  // About one cycle in `period`, and the same cycles for the same seed.
  CycleSampler a(64, 7);
  CycleSampler b(64, 7);
  bool same = true;
  for (int i = 0; i < 640000; ++i) same = same && (a.take() == b.take());
  EXPECT(same);
  const double rate = static_cast<double>(a.sampled()) / 640000.0;
  EXPECT(std::fabs(rate * 64.0 - 1.0) < 0.05);

  // No aliasing with a periodic pattern: sampled cycles hit every residue
  // of a period-64 cycle about equally.
  CycleSampler c(64);
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 64 * 20000; ++i) {
    if (c.take()) ++hits[i % 64];
  }
  int lo = hits[0];
  int hi = hits[0];
  for (const int h : hits) {
    lo = std::min(lo, h);
    hi = std::max(hi, h);
  }
  EXPECT(lo > 200 && hi < 450);
}

void test_scale() {
  // 100 sampled of 6400 cycles: the sampled time scales by 64.
  EXPECT(near(scale_layer_ns({1000.0, 100}, 0.0, 100, 6400), 64000.0));
  // The clock-read cost is removed per timed interval before scaling.
  EXPECT(near(scale_layer_ns({1000.0, 100}, 2.0, 100, 6400), 51200.0));
  // Overhead larger than the measurement clamps at zero.
  EXPECT(scale_layer_ns({100.0, 100}, 5.0, 100, 6400) == 0.0);
  // Nothing sampled, nothing to scale.
  EXPECT(scale_layer_ns({100.0, 10}, 0.0, 0, 6400) == 0.0);
}

RunRecord record(std::uint64_t cycles, std::uint64_t packets, double latency,
                 std::uint64_t hits, std::uint64_t misses, double util,
                 std::vector<std::pair<std::string, std::uint64_t>> phases) {
  RunRecord r;
  r.stats.cycles = cycles;
  r.stats.noc_flit_hops = 10 * packets;
  r.stats.packets_delivered = packets;
  r.stats.avg_packet_latency = latency;
  r.stats.mem_bytes_served = 64 * packets;
  r.stats.mem_row_hits = hits;
  r.stats.mem_row_misses = misses;
  r.stats.mem_queue_occupancy = util * 10;
  r.stats.gpe_utilization = util;
  r.stats.dna_utilization = util / 2;
  r.stats.agg_utilization = util / 4;
  r.stats.gpe_actions = 3;
  r.stats.dna_macs = 5;
  for (const auto& [kind, c] : phases) {
    accel::PhaseStats ps;
    ps.cycles = c;
    r.stats.phases.push_back(ps);
    r.phase_kinds.push_back(kind);
  }
  return r;
}

void test_aggregate() {
  const ModeledTotals t = aggregate(
      {record(100, 10, 4.0, 3, 1, 0.5, {{"project", 60}, {"gather_aggregate", 40}}),
       record(300, 30, 8.0, 1, 3, 0.1, {{"project", 300}})});
  EXPECT(t.runs == 2);
  EXPECT(t.cycles == 400);
  EXPECT(t.flit_hops == 400);
  EXPECT(t.packets_delivered == 40);
  EXPECT(t.mem_bytes_served == 64 * 40);
  EXPECT(t.gpe_actions == 6 && t.dna_macs == 10);
  EXPECT(near(t.avg_packet_latency, (4.0 * 10 + 8.0 * 30) / 40));  // by packets
  EXPECT(near(t.mem_row_hit_rate, 4.0 / 8.0));                      // by accesses
  EXPECT(near(t.gpe_utilization, (0.5 * 100 + 0.1 * 300) / 400));   // by cycles
  EXPECT(near(t.mem_queue_occupancy, (5.0 * 100 + 1.0 * 300) / 400));
  EXPECT(t.kind_cycles.at("project") == 360);
  EXPECT(t.kind_cycles.at("gather_aggregate") == 40);
  EXPECT(t.kind_cycles.at("edge_dna_aggregate") == 0);  // always reported

  const ModeledTotals empty = aggregate({});
  EXPECT(empty.cycles == 0 && empty.avg_packet_latency == 0.0 &&
         empty.mem_row_hit_rate == 0.0);
}

Fingerprint sample_fingerprint() {
  Fingerprint f;
  f.cycles = 2871294;
  f.phase_cycles = {1000000, 1871294};
  f.flit_hops = 123;
  f.packets_delivered = 45;
  f.mem_bytes_served = 6789;
  return f;
}

void test_fingerprint_compare() {
  const Fingerprint f = sample_fingerprint();
  EXPECT(compare_fingerprints(f, f).empty());
  Fingerprint g = f;
  g.cycles += 1;
  g.phase_cycles[1] += 1;
  const auto d = compare_fingerprints(g, f);
  EXPECT(d.size() == 2);
  EXPECT(!d.empty() && d[0] == "cycles: got 2871295, pinned 2871294");
  Fingerprint h = f;
  h.phase_cycles.push_back(0);  // an extra phase is a mismatch
  EXPECT(compare_fingerprints(h, f).size() == 1);
  Fingerprint k = f;
  k.mem_bytes_served = 0;
  EXPECT(compare_fingerprints(k, f).size() == 1);
}

void test_fingerprint_table() {
  const Fingerprint f = sample_fingerprint();
  std::istringstream in("# comment\n\n2020 GCN/Cora@cpu " +
                        format_fingerprint(f) + "\n  7 other@x " +
                        "cycles=1 phases=1 flit_hops=0 packets=0 "
                        "mem_bytes=0\n");
  const FingerprintTable t = FingerprintTable::parse(in);
  EXPECT(t.size() == 2);
  EXPECT(t.find(2020, "GCN/Cora@cpu") != nullptr &&
         *t.find(2020, "GCN/Cora@cpu") == f);
  EXPECT(t.find(2021, "GCN/Cora@cpu") == nullptr);  // keyed by seed too
  EXPECT(t.find(7, "other@x") != nullptr);

  const auto bad = [](const std::string& text) {
    return throws([&] {
      std::istringstream s(text);
      (void)FingerprintTable::parse(s);
    });
  };
  EXPECT(bad("2020\n"));                                   // no label
  EXPECT(bad("2020 x cycles=1 phases=1 flit_hops=0\n"));   // missing fields
  EXPECT(bad("2020 x cycles=1 phases=1 flit_hops=0 packets=0 mem_bytes=0 "
             "color=red\n"));                              // unknown field
  EXPECT(bad("2020 x cycles=-1 phases=1 flit_hops=0 packets=0 mem_bytes=0\n"));
  EXPECT(bad("x20 x cycles=1 phases=1 flit_hops=0 packets=0 mem_bytes=0\n"));
  EXPECT(bad("2020 x cycles phases=1 flit_hops=0 packets=0 mem_bytes=0\n"));
}

void test_result_json() {
  const std::string j = result_json(
      true, 12, 0,
      {{"latency_ms", 1.25, "ms"}, {"count", 3.0, "count"}});
  EXPECT(j ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"count\": "
         "{\"value\": 3, \"unit\": \"count\"}}}");
  // Full precision survives; non-finite values become 0.
  EXPECT(result_json(false, 1, 1, {{"x", 0.1 + 0.2, "s"}})
             .find("0.30000000000000004") != std::string::npos);
  EXPECT(result_json(false, 1, 1, {{"x", NAN, "s"}}).find("\"value\": 0,") !=
         std::string::npos);
}

/// The shipped pins agree with the simulator's goldens where they overlap
/// (dataset seed 2020; the golden tests pin the same counts).
void test_pins_match_goldens(const std::string& path) {
  std::ifstream in(path);
  EXPECT(static_cast<bool>(in));
  if (!in) return;
  const FingerprintTable t = FingerprintTable::parse(in);
  const auto cycles = [&](const std::string& label) -> std::uint64_t {
    const Fingerprint* f = t.find(2020, label);
    return f != nullptr ? f->cycles : 0;
  };
  EXPECT(cycles("GCN/Cora@gpu-iso-bw") == 415489);
  EXPECT(cycles("GAT/Cora@gpu-iso-bw") == 250121);
  EXPECT(cycles("GAT/Cora@cpu-iso-bw/in_order/2.4GHz") == 1775046);
  // Every pinned run's phases add up to its total.
  for (const std::uint64_t seed : {2020, 2021, 2022, 2023, 4242}) {
    for (const std::string label :
         {"GCN/Cora@gpu-iso-bw", "GAT/Cora@gpu-iso-bw",
          "MPNN/QM9_1000[:100]@cpu-iso-bw",
          "GAT/Cora@cpu-iso-bw/frfcfs/1.2GHz"}) {
      const Fingerprint* f = t.find(seed, label);
      EXPECT(f != nullptr);
      if (f == nullptr) continue;
      std::uint64_t sum = 0;
      for (const auto c : f->phase_cycles) sum += c;
      EXPECT(sum == f->cycles);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  test_quantile_matches_python();
  test_pass_throughput();
  test_sampler();
  test_scale();
  test_aggregate();
  test_fingerprint_compare();
  test_fingerprint_table();
  test_result_json();
  if (argc > 1) test_pins_match_goldens(argv[1]);
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all perfbench helper tests passed\n";
  return 0;
}
