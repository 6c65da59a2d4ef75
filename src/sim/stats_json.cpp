#include "sim/stats_json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

#include "accel/analysis.hpp"
#include "trace/attribution.hpp"
#include "trace/profiler.hpp"

namespace gnna::sim {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

class ObjectWriter {
 public:
  ObjectWriter(std::ostream& os, int indent) : os_(os), indent_(indent) {
    os_ << "{";
  }
  void field(const char* key, const std::string& raw) {
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    pad(indent_ + 2);
    os_ << '"' << key << "\": " << raw;
  }
  void str(const char* key, const std::string& v) {
    field(key, '"' + json_escape(v) + '"');
  }
  void num(const char* key, std::uint64_t v) { field(key, std::to_string(v)); }
  void num(const char* key, double v) { field(key, json_double(v)); }
  void close() {
    os_ << '\n';
    pad(indent_);
    os_ << '}';
  }
  std::ostream& raw() { return os_; }

 private:
  void pad(int n) {
    for (int i = 0; i < n; ++i) os_ << ' ';
  }
  std::ostream& os_;
  int indent_;
  bool first_ = true;
};

/// The embedded profile block ("profile": {...}); compact one-line-ish
/// arrays, since profile JSON is machine-read by gnnatrace, not humans.
std::string profile_json(const trace::ProfileReport& pr) {
  using trace::Category;
  std::string out = "{\"version\": " +
                    std::to_string(trace::kProfileSchemaVersion) +
                    ", \"phases\": [";
  for (std::size_t pi = 0; pi < pr.phases.size(); ++pi) {
    const auto& ph = pr.phases[pi];
    if (pi > 0) out += ", ";
    out += "{\"name\": \"" + json_escape(ph.name) +
           "\", \"start\": " + json_double(ph.start) +
           ", \"cycles\": " + json_double(ph.cycles()) +
           ", \"tasks\": " + std::to_string(ph.tasks) +
           ", \"alloc_stalls\": " + std::to_string(ph.alloc_stalls);
    const auto per_category = [&](const char* key, auto get) {
      out += ", \"";
      out += key;
      out += "\": {";
      bool first = true;
      for (std::size_t c = 0; c < trace::kNumCategories; ++c) {
        const std::string v = get(c);
        if (v == "0") continue;  // omit all-zero categories
        if (!first) out += ", ";
        first = false;
        out += '"';
        out += trace::category_name(static_cast<Category>(c));
        out += "\": " + v;
      }
      out += "}";
    };
    per_category("busy", [&](std::size_t c) { return json_double(ph.busy[c]); });
    per_category("completes",
                 [&](std::size_t c) { return std::to_string(ph.completes[c]); });
    per_category("instants",
                 [&](std::size_t c) { return std::to_string(ph.instants[c]); });
    out += ", \"units\": [";
    for (std::size_t i = 0; i < ph.units.size(); ++i) {
      const auto& u = ph.units[i];
      if (i > 0) out += ", ";
      out += "{\"cat\": \"";
      out += trace::category_name(u.cat);
      out += "\", \"unit\": " + std::to_string(u.unit) +
             ", \"busy\": " + json_double(u.busy) +
             ", \"completes\": " + std::to_string(u.completes) +
             ", \"instants\": " + std::to_string(u.instants) + "}";
    }
    out += "], \"flame\": [";
    for (std::size_t i = 0; i < ph.flame.size(); ++i) {
      const auto& f = ph.flame[i];
      if (i > 0) out += ", ";
      out += "{\"path\": \"" + json_escape(f.path) +
             "\", \"count\": " + std::to_string(f.count) +
             ", \"total\": " + json_double(f.total) +
             ", \"self\": " + json_double(f.self) +
             ", \"max\": " + json_double(f.max) + "}";
    }
    out += "], \"counters\": [";
    for (std::size_t i = 0; i < ph.counters.size(); ++i) {
      const auto& c = ph.counters[i];
      if (i > 0) out += ", ";
      out += "{\"cat\": \"";
      out += trace::category_name(c.cat);
      out += "\", \"name\": \"" + json_escape(c.name) +
             "\", \"samples\": " + std::to_string(c.samples) +
             ", \"last\": " + json_double(c.last) +
             ", \"max\": " + json_double(c.max) +
             ", \"mean\": " + json_double(c.mean) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

/// The embedded attribution block ("attribution": {...}): per-tile
/// busy/idle/traffic totals, the derived imbalance metrics, and the
/// bounded top-K per-vertex hotspot table (see trace/attribution.hpp).
std::string attribution_json(const trace::AttributionReport& ar) {
  std::string out = "{\"version\": 1, \"top_k\": " + std::to_string(ar.top_k) +
                    ", \"span\": " + json_double(ar.span) +
                    ", \"total_busy\": " + json_double(ar.total_busy) +
                    ", \"busy_max_mean\": " + json_double(ar.busy_max_mean()) +
                    ", \"flit_gini\": " + json_double(ar.flit_gini()) +
                    ", \"unattributed_flits\": " +
                    std::to_string(ar.unattributed_flits) + ", \"tiles\": [";
  for (std::size_t i = 0; i < ar.tiles.size(); ++i) {
    const auto& t = ar.tiles[i];
    if (i > 0) out += ", ";
    out += "{\"tile\": " + std::to_string(i) +
           ", \"busy\": " + json_double(t.busy) +
           ", \"idle\": " + json_double(t.idle) +
           ", \"agg_busy\": " + json_double(t.agg_busy) +
           ", \"tasks\": " + std::to_string(t.tasks) +
           ", \"flits\": " + std::to_string(t.flits) +
           ", \"flit_hops\": " + std::to_string(t.flit_hops) +
           ", \"bytes\": " + std::to_string(t.bytes) + "}";
  }
  out += "], \"vertices\": [";
  for (std::size_t i = 0; i < ar.vertices.size(); ++i) {
    const auto& v = ar.vertices[i];
    if (i > 0) out += ", ";
    out += "{\"vertex\": " + std::to_string(v.vertex) +
           ", \"busy\": " + json_double(v.busy) +
           ", \"agg_busy\": " + json_double(v.agg_busy) +
           ", \"tasks\": " + std::to_string(v.tasks) +
           ", \"flits\": " + std::to_string(v.flits) +
           ", \"bytes\": " + std::to_string(v.bytes) +
           ", \"approx\": " + (v.approx ? "true" : "false") + "}";
  }
  out += "]}";
  return out;
}

/// The embedded static-model block ("static_model": {...}): the analytic
/// cycle lower bound + per-phase roofline terms (accel/analysis.hpp).
std::string static_model_json(const accel::ProgramAnalysis& pa) {
  std::string out = "{\"version\": 1, \"bound_cycles\": " +
                    json_double(pa.bound_cycles) + ", \"phases\": [";
  for (std::size_t i = 0; i < pa.phases.size(); ++i) {
    const auto& ph = pa.phases[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + json_escape(ph.name) +
           "\", \"bound_cycles\": " + json_double(ph.bound_cycles) +
           ", \"compute_cycles\": " + json_double(ph.compute_cycles) +
           ", \"memory_cycles\": " + json_double(ph.memory_cycles) +
           ", \"noc_cycles\": " + json_double(ph.noc_cycles) +
           ", \"gpe_cycles\": " + json_double(ph.gpe_cycles) +
           ", \"dna_cycles\": " + json_double(ph.dna_cycles) +
           ", \"agg_cycles\": " + json_double(ph.agg_cycles) +
           ", \"read_bytes\": " + std::to_string(ph.read_bytes) +
           ", \"write_bytes\": " + std::to_string(ph.write_bytes) +
           ", \"payload_bytes\": " + std::to_string(ph.payload_bytes) +
           ", \"mem_requests\": " + std::to_string(ph.mem_requests) +
           ", \"predicted_row_hit_rate\": " +
           json_double(ph.predicted_row_hit_rate) + ", \"bottleneck\": \"" +
           json_escape(ph.bottleneck) +
           "\", \"imbalance\": " + json_double(ph.imbalance) +
           ", \"dnq0_concurrency\": " + std::to_string(ph.dnq0.concurrency) +
           ", \"dnq1_concurrency\": " + std::to_string(ph.dnq1.concurrency) +
           ", \"agg_concurrency\": " + std::to_string(ph.agg.concurrency) +
           "}";
  }
  out += "]}";
  return out;
}

}  // namespace

void write_run_stats_json(std::ostream& os, const accel::RunStats& rs,
                          int indent) {
  ObjectWriter w(os, indent);
  w.num("schema_version", std::uint64_t{kStatsJsonSchemaVersion});
  w.str("program", rs.program_name);
  // GNNA-IR content hash (hex) and cache provenance of the executed
  // program; empty/absent when the simulator was driven directly.
  if (!rs.program_cache.empty()) {
    char hash_buf[32];
    std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                  static_cast<unsigned long long>(rs.program_hash));
    w.str("program_hash", hash_buf);
    w.str("program_cache", rs.program_cache);
  }
  if (rs.optimized_from != 0) {
    // Provenance of an optimizer-rewritten program: the content hash of
    // the program the accel::opt pipeline started from.
    char hash_buf[32];
    std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                  static_cast<unsigned long long>(rs.optimized_from));
    w.str("optimized_from", hash_buf);
  }
  w.str("config", rs.config_name);
  w.num("core_clock_ghz", rs.core_clock_ghz);
  w.num("cycles", rs.cycles);
  w.num("seconds", rs.seconds);
  w.num("millis", rs.millis);
  w.num("mem_bytes_requested", rs.mem_bytes_requested);
  w.num("mem_bytes_served", rs.mem_bytes_served);
  w.num("mean_bandwidth_gbps", rs.mean_bandwidth_gbps);
  w.num("bandwidth_utilization", rs.bandwidth_utilization);
  w.str("mem_scheduler", rs.mem_scheduler);
  w.num("mem_row_hits", rs.mem_row_hits);
  w.num("mem_row_misses", rs.mem_row_misses);
  w.num("mem_row_hit_rate", rs.mem_row_hit_rate);
  w.num("mem_queue_occupancy", rs.mem_queue_occupancy);
  w.num("mem_queue_occupancy_max", rs.mem_queue_occupancy_max);
  std::string banks = "[";
  for (std::size_t i = 0; i < rs.mem_banks.size(); ++i) {
    const auto& b = rs.mem_banks[i];
    if (i > 0) banks += ", ";
    banks += "{\"mem\": " + std::to_string(b.mem) +
             ", \"bank\": " + std::to_string(b.bank) +
             ", \"row_hits\": " + std::to_string(b.row_hits) +
             ", \"row_misses\": " + std::to_string(b.row_misses) +
             ", \"busy_frac\": " + json_double(b.busy_frac) + "}";
  }
  banks += "]";
  w.field("mem_banks", banks);
  w.num("dna_utilization", rs.dna_utilization);
  w.num("gpe_utilization", rs.gpe_utilization);
  w.num("agg_utilization", rs.agg_utilization);
  w.num("tasks_completed", rs.tasks_completed);
  w.num("packets_delivered", rs.packets_delivered);
  w.num("avg_packet_latency", rs.avg_packet_latency);
  w.num("dnq_queue_switches", rs.dnq_queue_switches);
  w.num("alloc_stalls", rs.alloc_stalls);
  w.num("noc_flit_hops", rs.noc_flit_hops);
  w.num("noc_flits_delivered", rs.noc_flits_delivered);
  w.num("agg_words_reduced", rs.agg_words_reduced);
  w.num("dna_macs", rs.dna_macs);
  w.num("gpe_actions", rs.gpe_actions);
  w.num("dnq_words", rs.dnq_words);

  std::string phases = "[";
  for (std::size_t i = 0; i < rs.phases.size(); ++i) {
    const auto& ph = rs.phases[i];
    if (i > 0) phases += ", ";
    phases += "{\"name\": \"" + json_escape(ph.name) +
              "\", \"cycles\": " + std::to_string(ph.cycles) +
              ", \"mem_bytes_served\": " + std::to_string(ph.mem_bytes_served) +
              ", \"tasks\": " + std::to_string(ph.tasks) + "}";
  }
  phases += "]";
  w.field("phases", phases);
  if (rs.profile) w.field("profile", profile_json(*rs.profile));
  if (rs.attribution) {
    w.field("attribution", attribution_json(*rs.attribution));
  }
  if (rs.static_model) {
    w.field("static_model", static_model_json(*rs.static_model));
  }
  w.close();
}

void write_batch_json(std::ostream& os, const std::vector<RunResult>& results) {
  os << "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    if (results[i].ok()) {
      os << "  ";
      write_run_stats_json(os, results[i].stats, 2);
    } else {
      os << "  {\"error\": \"" << json_escape(results[i].error) << "\"}";
    }
  }
  os << "\n]\n";
}

}  // namespace gnna::sim
