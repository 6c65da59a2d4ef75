#include "sim/stats_json.hpp"

#include "accel/analysis.hpp"
#include "accel/ir.hpp"
#include "common/json_writer.hpp"
#include "trace/attribution.hpp"
#include "trace/profiler.hpp"

namespace gnna::sim {

namespace {

using Layout = JsonWriter::Layout;

/// The embedded profile block ("profile": {...}); one line, since profile
/// JSON is machine-read by gnnatrace, not humans.
void write_profile(JsonWriter& w, const trace::ProfileReport& pr) {
  w.begin_object().member("version", trace::kProfileSchemaVersion);
  w.key("phases").begin_array();
  for (const auto& ph : pr.phases) {
    w.begin_object()
        .member("name", ph.name)
        .member("start", ph.start)
        .member("cycles", ph.cycles())
        .member("tasks", ph.tasks)
        .member("alloc_stalls", ph.alloc_stalls);
    const auto per_category = [&](const char* key, const auto& values) {
      w.key(key).begin_object();
      for (std::size_t c = 0; c < trace::kNumCategories; ++c) {
        if (values[c] == 0) continue;  // omit all-zero categories
        w.member(trace::category_name(static_cast<trace::Category>(c)),
                 values[c]);
      }
      w.end();
    };
    per_category("busy", ph.busy);
    per_category("completes", ph.completes);
    per_category("instants", ph.instants);
    w.key("units").begin_array();
    for (const auto& u : ph.units) {
      w.begin_object()
          .member("cat", trace::category_name(u.cat))
          .member("unit", u.unit)
          .member("busy", u.busy)
          .member("completes", u.completes)
          .member("instants", u.instants)
          .end();
    }
    w.end().key("flame").begin_array();
    for (const auto& f : ph.flame) {
      w.begin_object()
          .member("path", f.path)
          .member("count", f.count)
          .member("total", f.total)
          .member("self", f.self)
          .member("max", f.max)
          .end();
    }
    w.end().key("counters").begin_array();
    for (const auto& c : ph.counters) {
      w.begin_object()
          .member("cat", trace::category_name(c.cat))
          .member("name", c.name)
          .member("samples", c.samples)
          .member("last", c.last)
          .member("max", c.max)
          .member("mean", c.mean)
          .end();
    }
    w.end().end();
  }
  w.end().end();
}

/// The embedded attribution block ("attribution": {...}): per-tile
/// busy/idle/traffic totals, the derived imbalance metrics, and the
/// bounded top-K per-vertex hotspot table (see trace/attribution.hpp).
void write_attribution(JsonWriter& w, const trace::AttributionReport& ar) {
  w.begin_object()
      .member("version", 1)
      .member("top_k", ar.top_k)
      .member("span", ar.span)
      .member("total_busy", ar.total_busy)
      .member("busy_max_mean", ar.busy_max_mean())
      .member("flit_gini", ar.flit_gini())
      .member("unattributed_flits", ar.unattributed_flits);
  w.key("tiles").begin_array();
  for (std::size_t i = 0; i < ar.tiles.size(); ++i) {
    const auto& t = ar.tiles[i];
    w.begin_object()
        .member("tile", i)
        .member("busy", t.busy)
        .member("idle", t.idle)
        .member("agg_busy", t.agg_busy)
        .member("tasks", t.tasks)
        .member("flits", t.flits)
        .member("flit_hops", t.flit_hops)
        .member("bytes", t.bytes)
        .end();
  }
  w.end().key("vertices").begin_array();
  for (const auto& v : ar.vertices) {
    w.begin_object()
        .member("vertex", v.vertex)
        .member("busy", v.busy)
        .member("agg_busy", v.agg_busy)
        .member("tasks", v.tasks)
        .member("flits", v.flits)
        .member("bytes", v.bytes)
        .member("approx", v.approx)
        .end();
  }
  w.end().end();
}

/// The embedded static-model block ("static_model": {...}): the analytic
/// cycle lower bound + per-phase roofline terms (accel/analysis.hpp).
void write_static_model(JsonWriter& w, const accel::ProgramAnalysis& pa) {
  w.begin_object().member("version", 1).member("bound_cycles", pa.bound_cycles);
  w.key("phases").begin_array();
  for (const auto& ph : pa.phases) {
    w.begin_object()
        .member("name", ph.name)
        .member("bound_cycles", ph.bound_cycles)
        .member("compute_cycles", ph.compute_cycles)
        .member("memory_cycles", ph.memory_cycles)
        .member("noc_cycles", ph.noc_cycles)
        .member("gpe_cycles", ph.gpe_cycles)
        .member("dna_cycles", ph.dna_cycles)
        .member("agg_cycles", ph.agg_cycles)
        .member("read_bytes", ph.read_bytes)
        .member("write_bytes", ph.write_bytes)
        .member("payload_bytes", ph.payload_bytes)
        .member("mem_requests", ph.mem_requests)
        .member("predicted_row_hit_rate", ph.predicted_row_hit_rate)
        .member("bottleneck", ph.bottleneck)
        .member("imbalance", ph.imbalance)
        .member("dnq0_concurrency", ph.dnq0.concurrency)
        .member("dnq1_concurrency", ph.dnq1.concurrency)
        .member("agg_concurrency", ph.agg.concurrency)
        .end();
  }
  w.end().end();
}

void write_run(JsonWriter& w, const accel::RunStats& rs) {
  w.begin_object(Layout::kPerLine)
      .member("schema_version", kStatsJsonSchemaVersion)
      .member("program", rs.program_name);
  // GNNA-IR content hash (hex) and cache provenance of the executed
  // program; empty/absent when the simulator was driven directly.
  if (!rs.program_cache.empty()) {
    w.member("program_hash", accel::ir::hash_hex(rs.program_hash))
        .member("program_cache", rs.program_cache);
  }
  if (rs.optimized_from != 0) {
    // Provenance of an optimizer-rewritten program: the content hash of
    // the program the accel::opt pipeline started from.
    w.member("optimized_from", accel::ir::hash_hex(rs.optimized_from));
  }
  w.member("config", rs.config_name)
      .member("core_clock_ghz", rs.core_clock_ghz)
      .member("cycles", rs.cycles)
      .member("seconds", rs.seconds)
      .member("millis", rs.millis)
      .member("mem_bytes_requested", rs.mem_bytes_requested)
      .member("mem_bytes_served", rs.mem_bytes_served)
      .member("mean_bandwidth_gbps", rs.mean_bandwidth_gbps)
      .member("bandwidth_utilization", rs.bandwidth_utilization)
      .member("mem_scheduler", rs.mem_scheduler)
      .member("mem_row_hits", rs.mem_row_hits)
      .member("mem_row_misses", rs.mem_row_misses)
      .member("mem_row_hit_rate", rs.mem_row_hit_rate)
      .member("mem_queue_occupancy", rs.mem_queue_occupancy)
      .member("mem_queue_occupancy_max", rs.mem_queue_occupancy_max);
  w.key("mem_banks").begin_array();
  for (const auto& b : rs.mem_banks) {
    w.begin_object()
        .member("mem", b.mem)
        .member("bank", b.bank)
        .member("row_hits", b.row_hits)
        .member("row_misses", b.row_misses)
        .member("busy_frac", b.busy_frac)
        .end();
  }
  w.end()
      .member("dna_utilization", rs.dna_utilization)
      .member("gpe_utilization", rs.gpe_utilization)
      .member("agg_utilization", rs.agg_utilization)
      .member("tasks_completed", rs.tasks_completed)
      .member("packets_delivered", rs.packets_delivered)
      .member("avg_packet_latency", rs.avg_packet_latency)
      .member("dnq_queue_switches", rs.dnq_queue_switches)
      .member("alloc_stalls", rs.alloc_stalls)
      .member("noc_flit_hops", rs.noc_flit_hops)
      .member("noc_flits_delivered", rs.noc_flits_delivered)
      .member("agg_words_reduced", rs.agg_words_reduced)
      .member("dna_macs", rs.dna_macs)
      .member("gpe_actions", rs.gpe_actions)
      .member("dnq_words", rs.dnq_words);
  w.key("phases").begin_array();
  for (const auto& ph : rs.phases) {
    w.begin_object()
        .member("name", ph.name)
        .member("cycles", ph.cycles)
        .member("mem_bytes_served", ph.mem_bytes_served)
        .member("tasks", ph.tasks)
        .end();
  }
  w.end();
  if (rs.profile) write_profile(w.key("profile"), *rs.profile);
  if (rs.attribution) write_attribution(w.key("attribution"), *rs.attribution);
  if (rs.static_model) {
    write_static_model(w.key("static_model"), *rs.static_model);
  }
  w.end();
}

}  // namespace

void write_run_stats_json(std::ostream& os, const accel::RunStats& rs) {
  JsonWriter w(os);
  write_run(w, rs);
}

void write_batch_json(std::ostream& os, const std::vector<RunResult>& results) {
  JsonWriter w(os);
  w.begin_array(Layout::kPerLine);
  for (const RunResult& r : results) {
    if (r.ok()) {
      write_run(w, r.stats);
    } else {
      w.begin_object().member("error", r.error).end();
    }
  }
  w.end();
  os << '\n';
}

void write_verify_json(std::ostream& os,
                       const std::vector<LintedProgram>& linted,
                       std::size_t errors, std::size_t warnings, bool werror) {
  JsonWriter w(os);
  w.begin_object(Layout::kPerLine)
      .member("version", 2)
      .member("werror", werror);
  w.key("programs").begin_array(Layout::kPerLine);
  for (const LintedProgram& lp : linted) {
    w.begin_object().member("name", lp.name);
    if (!lp.failure.empty()) w.member("failure", lp.failure);
    w.key("diagnostics").begin_array(Layout::kPerLine);
    for (const auto& diag : lp.report.diagnostics) {
      const bool native_error = diag.severity == accel::Severity::kError;
      const bool promoted = werror && !native_error;
      w.begin_object()
          .member("code", accel::lint_code_name(diag.code))
          .member("severity", native_error ? "error" : "warning")
          .member("effective_severity",
                  native_error || promoted ? "error" : "warning")
          .member("promoted", promoted)
          .member("family",
                  accel::lint_family_name(accel::lint_code_family(diag.code)))
          .member("phase", diag.phase)
          .member("phase_name", diag.phase_name)
          .member("message", diag.message)
          .end();
    }
    w.end();
    if (!lp.fixes.empty()) {
      w.key("fixes").begin_array(Layout::kPerLine);
      for (const auto& fix : lp.fixes) {
        w.begin_object()
            .member("code", accel::lint_code_name(fix.code))
            .member("verified", fix.verified)
            .member("description", fix.description)
            .member("manifest_snippet", fix.manifest_snippet)
            .end();
      }
      w.end();
    }
    w.end();
  }
  w.end().member("errors", errors).member("warnings", warnings).end();
  os << '\n';
}

}  // namespace gnna::sim
