// Pure helpers of the simulator benchmark: order statistics, the sampled
// per-call timer's scale-up, run-stat aggregation, the pinned-fingerprint
// table and its comparison, and the result-line JSON. Nothing here touches
// the simulator's internals, so perfbench_tests can check it in isolation.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "accel/simulator.hpp"

namespace perfbench {

namespace accel = gnna::accel;
namespace graph = gnna::graph;

// ---------------------------------------------------------------- statistics

/// The `p`-quantile of `v` (0 <= p <= 1), interpolated linearly between
/// the two nearest order statistics, like Python's
/// statistics.quantiles(v, method="inclusive"): p = 0.1 and 0.9 are its
/// first and last deciles, p = 0.5 the median. Stays within the data's
/// range; one value is its own quantile, an empty vector gives 0.
[[nodiscard]] double quantile(std::vector<double> v, double p);

/// Host time of one run of a workload pass, repeated over passes.
struct RunSamples {
  std::uint64_t cycles = 0;      // modeled cycles of the run (exact)
  std::vector<double> seconds;   // host seconds of each repeat
};

/// Modeled cycles per host second of a whole pass: each run's seconds are
/// taken at their median over repeats, then cycles and median seconds are
/// summed over runs, so a long run weighs by its length and one slow
/// repeat of any run moves nothing. Runs without samples are skipped; 0
/// when none has any.
[[nodiscard]] double pass_throughput(const std::vector<RunSamples>& runs);

// ------------------------------------------------------------ sampled timing

/// Chooses which simulated cycles get their layers timed: about one
/// in `period`, at pseudo-random positions so a periodic pattern in the
/// simulated machine cannot alias with the sampling. Deterministic for a
/// given `seed`. period 0 disables sampling; period 1 samples every cycle.
class CycleSampler {
 public:
  explicit CycleSampler(std::uint32_t period, std::uint64_t seed = 0x9e3779b9);

  /// Advance one cycle; true when this cycle is sampled.
  bool take();

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t sampled() const { return sampled_; }

 private:
  std::uint32_t period_;
  std::uint64_t state_;
  std::uint64_t cycles_ = 0;
  std::uint64_t sampled_ = 0;
};

/// Host time of one layer, accumulated over the sampled cycles only.
struct LayerTime {
  double sampled_ns = 0.0;   // summed measured durations
  std::uint64_t calls = 0;   // timed intervals behind sampled_ns
};

/// Scale a layer's sampled time to the whole run. Each timed interval
/// carries the cost of one clock read (`timer_overhead_ns`, measured by an
/// empty timed region), which is removed first; the result is clamped at
/// zero.
/// Returns the estimated total ns over `total_cycles` simulated cycles,
/// given `sampled_cycles` of them were timed.
[[nodiscard]] double scale_layer_ns(const LayerTime& t,
                                    double timer_overhead_ns,
                                    std::uint64_t sampled_cycles,
                                    std::uint64_t total_cycles);

// --------------------------------------------------------------- aggregation

/// Modeled statistics of one workload pass: counts are summed over runs,
/// rates are weighted by what they are a rate of (packet latency by
/// packets, row-hit rate by row accesses, occupancy and utilizations by
/// cycles), and phase cycles are summed by phase kind.
struct ModeledTotals {
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t packets_delivered = 0;
  double avg_packet_latency = 0.0;
  std::uint64_t mem_bytes_served = 0;
  double mem_row_hit_rate = 0.0;
  double mem_queue_occupancy = 0.0;
  std::uint64_t gpe_actions = 0;
  std::uint64_t dna_macs = 0;
  std::uint64_t agg_words_reduced = 0;
  std::uint64_t dnq_queue_switches = 0;
  std::uint64_t alloc_stalls = 0;
  double gpe_utilization = 0.0;
  double dna_utilization = 0.0;
  double agg_utilization = 0.0;
  /// Phase-kind name ("gather_aggregate", "project", "edge_dna_aggregate")
  /// -> modeled cycles spent in phases of that kind.
  std::map<std::string, std::uint64_t> kind_cycles;
};

/// One run's statistics plus the kind of each of its phases (RunStats
/// only carries phase names; the kinds come from the program).
struct RunRecord {
  accel::RunStats stats;
  std::vector<std::string> phase_kinds;  // parallel to stats.phases
};

[[nodiscard]] ModeledTotals aggregate(const std::vector<RunRecord>& runs);

/// Snake-case name of a phase kind, as used in metric names.
[[nodiscard]] std::string phase_kind_name(accel::PhaseKind k);

// ------------------------------------------------------------- fingerprints

/// The modeled output of one run that a simulator-speed change must keep
/// bit-identical.
struct Fingerprint {
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> phase_cycles;
  std::uint64_t flit_hops = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t mem_bytes_served = 0;

  bool operator==(const Fingerprint&) const = default;
};

[[nodiscard]] Fingerprint fingerprint_of(const accel::RunStats& rs);

/// "cycles=.. phases=a,b,c flit_hops=.. packets=.. mem_bytes=.." — the
/// value part of one line of the pinned table.
[[nodiscard]] std::string format_fingerprint(const Fingerprint& f);

/// Field-by-field differences, "field: got X, pinned Y"; empty when equal.
[[nodiscard]] std::vector<std::string> compare_fingerprints(
    const Fingerprint& got, const Fingerprint& pinned);

/// Pinned fingerprints keyed by (dataset seed, run label). The text form
/// has one run per line, `<seed> <label> <format_fingerprint(...)>`;
/// blank lines and lines starting with '#' are ignored.
class FingerprintTable {
 public:
  /// Throws std::runtime_error naming the line on malformed input.
  static FingerprintTable parse(std::istream& in);

  void pin(std::uint64_t seed, const std::string& label, Fingerprint f);
  [[nodiscard]] const Fingerprint* find(std::uint64_t seed,
                                        const std::string& label) const;
  [[nodiscard]] std::size_t size() const { return pins_.size(); }

 private:
  std::map<std::pair<std::uint64_t, std::string>, Fingerprint> pins_;
};

// ----------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": .., "unit": ..}, ..}}. Values keep all their digits.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
