#include "accel/simulator.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "accel/analysis.hpp"
#include "accel/report.hpp"
#include "accel/verify.hpp"

namespace gnna::accel {

AcceleratorSim::AcceleratorSim(AcceleratorConfig cfg,
                               graph::PartitionPolicy partition)
    : cfg_(std::move(cfg)), partition_(partition) {}

void AcceleratorSim::attach_tracers() {
  sink_ = trace_.sink;
  if (trace_.profile) {
    profiler_ = std::make_unique<trace::Profiler>();
  }
  if (trace_.attribution) {
    attribution_ = std::make_unique<trace::Attribution>(
        static_cast<std::uint32_t>(machine_->tiles().size()),
        machine_->ep_to_tile(), trace_.attribution_top_k);
  }
  // Compose whatever is attached; a single consumer skips the tee.
  std::vector<trace::TraceSink*> sinks;
  if (sink_ != nullptr) sinks.push_back(sink_);
  if (profiler_) sinks.push_back(profiler_.get());
  if (attribution_) sinks.push_back(attribution_.get());
  if (sinks.empty()) return;
  if (sinks.size() == 1) {
    sink_ = sinks.front();
  } else {
    for (trace::TraceSink* s : sinks) tee_.add(s);
    sink_ = &tee_;
  }
  machine_->set_tracing(sink_);
}

void AcceleratorSim::begin_sampling() {
  if (trace_.sample_every == 0) return;
  next_sample_ = trace_.sample_every;
  last_sample_cycle_ = 0;
  prev_gpe_busy_ = prev_dna_busy_ = prev_agg_busy_ = 0.0;
  prev_mem_bytes_.assign(machine_->mems().size(), 0);
  if (trace_.sample_out != nullptr) {
    *trace_.sample_out << sample_csv_header(machine_->mems().size()) << '\n';
  }
}

void AcceleratorSim::maybe_sample(const std::string& phase_name) {
  if (trace_.sample_every == 0 || machine_->now() < next_sample_) return;
  const Cycle now = machine_->now();
  const auto& tiles = machine_->tiles();
  const auto& mems = machine_->mems();
  const Cycle window = now - last_sample_cycle_;
  last_sample_cycle_ = now;
  next_sample_ = now + trace_.sample_every;

  double gpe_busy = 0.0;
  double dna_busy = 0.0;
  double agg_busy = 0.0;
  std::uint32_t dnq_live = 0;
  std::uint32_t agg_live = 0;
  for (const auto& t : tiles) {
    gpe_busy += t->gpe().stats().busy_cycles;
    dna_busy += t->dna().stats().busy_cycles;
    agg_busy += t->agg().stats().busy_cycles;
    dnq_live += t->dnq().live_entries();
    agg_live += t->agg().live_entries();
  }
  const double denom =
      static_cast<double>(window) * static_cast<double>(tiles.size());
  const double gpe_frac = denom > 0.0 ? (gpe_busy - prev_gpe_busy_) / denom : 0.0;
  const double dna_frac = denom > 0.0 ? (dna_busy - prev_dna_busy_) / denom : 0.0;
  const double agg_frac = denom > 0.0 ? (agg_busy - prev_agg_busy_) / denom : 0.0;
  prev_gpe_busy_ = gpe_busy;
  prev_dna_busy_ = dna_busy;
  prev_agg_busy_ = agg_busy;

  std::size_t mem_depth = 0;
  for (const auto& m : mems) mem_depth += m->queue_depth();
  const std::size_t inflight = machine_->net().inflight_packets();

  const double window_s =
      cfg_.noc_clock.cycles_to_seconds(static_cast<double>(window));
  std::vector<double> mem_gbps(mems.size(), 0.0);
  double total_gbps = 0.0;
  for (std::size_t i = 0; i < mems.size(); ++i) {
    const std::uint64_t served = mems[i]->stats().bytes_served.value();
    const std::uint64_t delta = served - prev_mem_bytes_[i];
    prev_mem_bytes_[i] = served;
    mem_gbps[i] =
        window_s > 0.0 ? static_cast<double>(delta) / window_s / 1e9 : 0.0;
    total_gbps += mem_gbps[i];
  }

  if (trace_.sample_out != nullptr) {
    // Assemble the row first and emit it with one stream write, so rows
    // stay intact even if several runs share the stream.
    std::ostringstream row;
    row << now << ',' << phase_name << ',' << gpe_frac << ',' << dna_frac
        << ',' << agg_frac << ',' << dnq_live << ',' << agg_live << ','
        << mem_depth << ',' << inflight << ',' << total_gbps;
    for (const double g : mem_gbps) row << ',' << g;
    row << '\n';
    *trace_.sample_out << row.str();
  }
  if (sink_ != nullptr) {
    const auto at = static_cast<double>(now);
    sink_->counter(trace::Category::kGpe, 0, "busy_frac", at, gpe_frac);
    sink_->counter(trace::Category::kDna, 0, "busy_frac", at, dna_frac);
    sink_->counter(trace::Category::kAgg, 0, "busy_frac", at, agg_frac);
    sink_->counter(trace::Category::kDnq, 0, "live_entries", at,
                   static_cast<double>(dnq_live));
    sink_->counter(trace::Category::kNoc, 0, "inflight_packets", at,
                   static_cast<double>(inflight));
    sink_->counter(trace::Category::kMem, 0, "queue_depth", at,
                   static_cast<double>(mem_depth));
    sink_->counter(trace::Category::kMem, 0, "total_gbps", at, total_gbps);
  }
}

RunStats AcceleratorSim::run(const CompiledProgram& prog,
                             const graph::Dataset& ds) {
  if (used_) throw std::logic_error("AcceleratorSim::run: already used");
  used_ = true;
  // Static verification before any hardware is built: a program that
  // cannot execute (oversized entries, bad models, unwritten buffers)
  // fails here with structured diagnostics instead of deadlocking into
  // the watchdog. The bound dataset enables the topology-dependent
  // checks (walk-tree recomputation, layout/dataset agreement).
  if (verify_) verify_or_throw(prog, cfg_.tile_params, &ds, &cfg_, partition_);
  machine_ = std::make_unique<Machine>(cfg_);
  Machine& m = *machine_;
  attach_tracers();
  begin_sampling();

  RunStats rs;
  rs.config_name = cfg_.name;
  rs.program_name = prog.name;
  rs.core_clock_ghz = cfg_.core_clock.ghz();

  for (const PhaseSpec& phase : prog.phases) {
    // Phase markers: pure observation (no tick happens here), so enabling
    // them cannot move a single cycle — the goldens pin this.
    if (sink_ != nullptr) {
      sink_->phase_begin(phase.name.c_str(), static_cast<double>(m.now()));
    }
    m.begin_phase(prog, ds, phase, partition_, work_owners_);

    // Run to the global barrier, one tick per cycle while anything is in
    // flight; quiet stretches are skipped (Machine::skip_quiet_cycles),
    // but the tick after which the watchdog could fire and the one after
    // which a sample is due still run.
    std::uint64_t last_sig = m.progress_signature();
    Cycle last_progress = m.now();
    while (!m.idle()) {
      m.tick_cycle();
      if (trace_.sample_every != 0) maybe_sample(phase.name);

      const std::uint64_t sig = m.progress_signature();
      if (sig != last_sig) {
        last_sig = sig;
        last_progress = m.now();
      } else if (m.now() - last_progress > watchdog_cycles_) {
        std::ostringstream report;
        report << "=== deadlock diagnostics (phase '" << phase.name
               << "', cycle " << m.now() << ") ===\n";
        m.dump_state(report);
        if (!trace_.deadlock_report_path.empty()) {
          std::ofstream f(trace_.deadlock_report_path);
          f << report.str();
        }
        throw std::runtime_error(
            "AcceleratorSim: no progress in phase " + phase.name + " for " +
            std::to_string(watchdog_cycles_) + " cycles (deadlock?)\n" +
            report.str());
      }
      if (m.quiet()) {
        Cycle limit = watchdog_cycles_ > kNeverCycle - last_progress
                          ? kNeverCycle
                          : last_progress + watchdog_cycles_;
        if (trace_.sample_every != 0) limit = std::min(limit, next_sample_ - 1);
        const Cycle replayed_to = m.skip_quiet_cycles(limit);
        if (replayed_to != 0) {
          last_sig = m.progress_signature();
          last_progress = std::max(last_progress, replayed_to);
        }
      }
    }

    if (sink_ != nullptr) {
      sink_->phase_end(phase.name.c_str(), static_cast<double>(m.now()));
    }

    rs.phases.push_back(m.phase_stats());
  }

  m.read_stats(rs);
  if (profiler_) {
    rs.profile =
        std::make_shared<const trace::ProfileReport>(profiler_->report());
  }
  if (attribution_) {
    rs.attribution = std::make_shared<const trace::AttributionReport>(
        attribution_->report());
  }
  {
    // Static shadow model of the run just measured (purely analytic — no
    // simulator state involved, so cycle counts cannot move).
    AnalysisOptions aopt;
    aopt.dataset = &ds;
    aopt.partition = partition_;
    rs.static_model = std::make_shared<const ProgramAnalysis>(
        analyze_program(prog, cfg_, aopt));
  }
  return rs;
}

}  // namespace gnna::accel
