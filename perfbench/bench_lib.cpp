#include "bench_lib.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto j = static_cast<std::size_t>(h);
  if (j + 1 >= v.size()) return v.back();
  return v[j] + (h - static_cast<double>(j)) * (v[j + 1] - v[j]);
}

double pass_throughput(const std::vector<RunSamples>& runs) {
  double cycles = 0.0;
  double seconds = 0.0;
  for (const RunSamples& r : runs) {
    if (r.seconds.empty()) continue;
    cycles += static_cast<double>(r.cycles);
    seconds += quantile(r.seconds, 0.5);
  }
  return seconds > 0.0 ? cycles / seconds : 0.0;
}

CycleSampler::CycleSampler(std::uint32_t period, std::uint64_t seed)
    : period_(period), state_(seed == 0 ? 1 : seed) {}

bool CycleSampler::take() {
  ++cycles_;
  if (period_ == 0) return false;
  // xorshift64: cheap, deterministic, no visible period at this scale.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  if (state_ % period_ != 0) return false;
  ++sampled_;
  return true;
}

double scale_layer_ns(const LayerTime& t, double timer_overhead_ns,
                      std::uint64_t sampled_cycles,
                      std::uint64_t total_cycles) {
  if (sampled_cycles == 0) return 0.0;
  const double net =
      std::max(0.0, t.sampled_ns - timer_overhead_ns *
                                       static_cast<double>(t.calls));
  return net * static_cast<double>(total_cycles) /
         static_cast<double>(sampled_cycles);
}

std::string phase_kind_name(accel::PhaseKind k) {
  switch (k) {
    case accel::PhaseKind::kGatherAggregate:
      return "gather_aggregate";
    case accel::PhaseKind::kProject:
      return "project";
    case accel::PhaseKind::kEdgeDnaAggregate:
      return "edge_dna_aggregate";
  }
  return "unknown";
}

ModeledTotals aggregate(const std::vector<RunRecord>& runs) {
  ModeledTotals t;
  t.kind_cycles = {{"gather_aggregate", 0},
                   {"project", 0},
                   {"edge_dna_aggregate", 0}};
  double latency_sum = 0.0;
  double row_hits = 0.0;
  double row_accesses = 0.0;
  double occupancy_sum = 0.0;
  double gpe_sum = 0.0;
  double dna_sum = 0.0;
  double agg_sum = 0.0;
  for (const RunRecord& r : runs) {
    const accel::RunStats& s = r.stats;
    const auto cycles = static_cast<double>(s.cycles);
    ++t.runs;
    t.cycles += s.cycles;
    t.flit_hops += s.noc_flit_hops;
    t.packets_delivered += s.packets_delivered;
    latency_sum +=
        s.avg_packet_latency * static_cast<double>(s.packets_delivered);
    t.mem_bytes_served += s.mem_bytes_served;
    row_hits += static_cast<double>(s.mem_row_hits);
    row_accesses += static_cast<double>(s.mem_row_hits + s.mem_row_misses);
    occupancy_sum += s.mem_queue_occupancy * cycles;
    t.gpe_actions += s.gpe_actions;
    t.dna_macs += s.dna_macs;
    t.agg_words_reduced += s.agg_words_reduced;
    t.dnq_queue_switches += s.dnq_queue_switches;
    t.alloc_stalls += s.alloc_stalls;
    gpe_sum += s.gpe_utilization * cycles;
    dna_sum += s.dna_utilization * cycles;
    agg_sum += s.agg_utilization * cycles;
    for (std::size_t p = 0; p < s.phases.size() && p < r.phase_kinds.size();
         ++p) {
      t.kind_cycles[r.phase_kinds[p]] += s.phases[p].cycles;
    }
  }
  const auto div = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto cycles = static_cast<double>(t.cycles);
  t.avg_packet_latency =
      div(latency_sum, static_cast<double>(t.packets_delivered));
  t.mem_row_hit_rate = div(row_hits, row_accesses);
  t.mem_queue_occupancy = div(occupancy_sum, cycles);
  t.gpe_utilization = div(gpe_sum, cycles);
  t.dna_utilization = div(dna_sum, cycles);
  t.agg_utilization = div(agg_sum, cycles);
  return t;
}

Fingerprint fingerprint_of(const accel::RunStats& rs) {
  Fingerprint f;
  f.cycles = rs.cycles;
  for (const auto& p : rs.phases) f.phase_cycles.push_back(p.cycles);
  f.flit_hops = rs.noc_flit_hops;
  f.packets_delivered = rs.packets_delivered;
  f.mem_bytes_served = rs.mem_bytes_served;
  return f;
}

namespace {

std::string join(const std::vector<std::uint64_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(v[i]);
  }
  return s;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("bad " + what + " '" + text + "'");
  }
  return std::stoull(text);
}

}  // namespace

std::string format_fingerprint(const Fingerprint& f) {
  return "cycles=" + std::to_string(f.cycles) +
         " phases=" + join(f.phase_cycles) +
         " flit_hops=" + std::to_string(f.flit_hops) +
         " packets=" + std::to_string(f.packets_delivered) +
         " mem_bytes=" + std::to_string(f.mem_bytes_served);
}

std::vector<std::string> compare_fingerprints(const Fingerprint& got,
                                              const Fingerprint& pinned) {
  std::vector<std::string> diffs;
  const auto check = [&](const char* field, const std::string& g,
                         const std::string& p) {
    if (g != p) {
      diffs.push_back(std::string(field) + ": got " + g + ", pinned " + p);
    }
  };
  check("cycles", std::to_string(got.cycles), std::to_string(pinned.cycles));
  check("phases", join(got.phase_cycles), join(pinned.phase_cycles));
  check("flit_hops", std::to_string(got.flit_hops),
        std::to_string(pinned.flit_hops));
  check("packets", std::to_string(got.packets_delivered),
        std::to_string(pinned.packets_delivered));
  check("mem_bytes", std::to_string(got.mem_bytes_served),
        std::to_string(pinned.mem_bytes_served));
  return diffs;
}

FingerprintTable FingerprintTable::parse(std::istream& in) {
  FingerprintTable table;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      std::istringstream ls(line);
      std::string seed_text;
      std::string label;
      ls >> seed_text >> label;
      if (label.empty()) throw std::runtime_error("missing run label");
      Fingerprint f;
      bool seen[5] = {false, false, false, false, false};
      std::string field;
      while (ls >> field) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) {
          throw std::runtime_error("expected key=value, got '" + field + "'");
        }
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        if (key == "cycles") {
          f.cycles = parse_u64(val, key);
          seen[0] = true;
        } else if (key == "phases") {
          std::istringstream ps(val);
          std::string item;
          while (std::getline(ps, item, ',')) {
            f.phase_cycles.push_back(parse_u64(item, "phase cycles"));
          }
          seen[1] = true;
        } else if (key == "flit_hops") {
          f.flit_hops = parse_u64(val, key);
          seen[2] = true;
        } else if (key == "packets") {
          f.packets_delivered = parse_u64(val, key);
          seen[3] = true;
        } else if (key == "mem_bytes") {
          f.mem_bytes_served = parse_u64(val, key);
          seen[4] = true;
        } else {
          throw std::runtime_error("unknown field '" + key + "'");
        }
      }
      if (!std::all_of(std::begin(seen), std::end(seen),
                       [](bool b) { return b; })) {
        throw std::runtime_error("a fingerprint needs cycles, phases, "
                                 "flit_hops, packets and mem_bytes");
      }
      table.pin(parse_u64(seed_text, "seed"), label, std::move(f));
    } catch (const std::exception& e) {
      throw std::runtime_error("fingerprints:" + std::to_string(lineno) +
                               ": " + e.what());
    }
  }
  return table;
}

void FingerprintTable::pin(std::uint64_t seed, const std::string& label,
                           Fingerprint f) {
  pins_[{seed, label}] = std::move(f);
}

const Fingerprint* FingerprintTable::find(std::uint64_t seed,
                                          const std::string& label) const {
  const auto it = pins_.find({seed, label});
  return it == pins_.end() ? nullptr : &it->second;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Shortest text that round-trips the double; non-finite is not JSON.
    char num[64];
    const auto res = std::to_chars(num, num + sizeof num,
                                   std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + std::string(num, res.ptr) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
