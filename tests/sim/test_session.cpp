// Session-layer invariants: content-keyed caching is transparent (cached
// and fresh inputs produce bit-identical stats) and the caches actually
// hit on repeated resolution.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "accel/compiler.hpp"
#include "accel/ir.hpp"
#include "graph/dataset_cache.hpp"
#include "sim/batch_runner.hpp"
#include "sim/json.hpp"
#include "sim/manifest.hpp"
#include "sim/session.hpp"
#include "sim/stats_json.hpp"

namespace gnna::sim {
namespace {

// GCN/Cora is the cheapest Table VII benchmark to simulate (~0.25 s) —
// fast enough to run several times in a unit test. (PGNN/DBLP_1 has fewer
// vertices but its anchor-set model is ~100x more expensive.)
constexpr gnn::Benchmark kSmall = gnn::Benchmark::kGcnCora;

void expect_same_stats(const accel::RunStats& a, const accel::RunStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.mem_bytes_requested, b.mem_bytes_requested);
  EXPECT_EQ(a.mem_bytes_served, b.mem_bytes_served);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.noc_flit_hops, b.noc_flit_hops);
  EXPECT_EQ(a.dna_macs, b.dna_macs);
  EXPECT_EQ(a.gpe_actions, b.gpe_actions);
  EXPECT_EQ(a.dnq_words, b.dnq_words);
  EXPECT_EQ(a.alloc_stalls, b.alloc_stalls);
  EXPECT_DOUBLE_EQ(a.millis, b.millis);
  EXPECT_DOUBLE_EQ(a.dna_utilization, b.dna_utilization);
  EXPECT_DOUBLE_EQ(a.gpe_utilization, b.gpe_utilization);
  EXPECT_DOUBLE_EQ(a.agg_utilization, b.agg_utilization);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].name, b.phases[i].name);
    EXPECT_EQ(a.phases[i].cycles, b.phases[i].cycles);
    EXPECT_EQ(a.phases[i].mem_bytes_served, b.phases[i].mem_bytes_served);
    EXPECT_EQ(a.phases[i].tasks, b.phases[i].tasks);
  }
}

TEST(DatasetCache, SameKeySharesOneInstance) {
  graph::DatasetCache cache;
  const auto a = cache.get(graph::DatasetId::kDblp1, 2020);
  const auto b = cache.get(graph::DatasetId::kDblp1, 2020);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);
}

TEST(DatasetCache, DifferentSeedOrIdIsADifferentEntry) {
  graph::DatasetCache cache;
  const auto a = cache.get(graph::DatasetId::kDblp1, 2020);
  const auto b = cache.get(graph::DatasetId::kDblp1, 7);
  const auto c = cache.get(graph::DatasetId::kCora, 2020);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 3U);
  EXPECT_EQ(cache.misses(), 3U);
}

TEST(DatasetCache, CachedMatchesFreshGeneration) {
  graph::DatasetCache cache;
  const auto cached = cache.get(graph::DatasetId::kDblp1, 11);
  (void)cache.get(graph::DatasetId::kDblp1, 11);  // force a hit path
  const graph::Dataset fresh = graph::make_dataset(graph::DatasetId::kDblp1, 11);
  ASSERT_EQ(cached->graphs.size(), fresh.graphs.size());
  EXPECT_EQ(cached->node_features, fresh.node_features);
  EXPECT_EQ(cached->edge_features, fresh.edge_features);
  EXPECT_EQ(cached->total_edges(), fresh.total_edges());
}

TEST(Session, CachedRerunIsBitIdenticalToFreshRun) {
  RunRequest req;
  req.benchmark = kSmall;

  // Fresh session (cold caches) vs a second run on a warm session.
  Session fresh;
  const accel::RunStats cold = fresh.run(req);

  Session warm;
  (void)warm.run(req);
  const accel::RunStats hot = warm.run(req);

  expect_same_stats(cold, hot);

  const auto cc = warm.cache_counters();
  EXPECT_EQ(cc.dataset_misses, 1U);
  EXPECT_EQ(cc.program_misses, 1U);
  EXPECT_EQ(cc.program_hits, 1U);
}

TEST(Session, MatchesHandRolledPipeline) {
  // The session must produce exactly what the hand-rolled
  // dataset -> model -> compile -> simulate pipeline produced before the
  // refactor (this is what keeps the goldens valid).
  const graph::Dataset ds =
      graph::make_dataset(gnn::benchmark_dataset(kSmall), 2020);
  const gnn::ModelSpec model = gnn::make_benchmark_model(kSmall);
  const accel::CompiledProgram prog =
      accel::ProgramCompiler{}.compile(model, ds);
  accel::AcceleratorSim sim(accel::AcceleratorConfig::cpu_iso_bw());
  const accel::RunStats manual = sim.run(prog, ds);

  Session session;
  RunRequest req;
  req.benchmark = kSmall;
  const accel::RunStats via_session = session.run(req);

  expect_same_stats(manual, via_session);
}

TEST(Session, ResolveSharesDatasetAndProgramAcrossRequests) {
  Session session;
  RunRequest a;
  a.benchmark = kSmall;
  RunRequest b = a;
  // Per-run knobs must not fork the cached inputs.
  b.config.tile_params.gpe_threads = 32;

  const Session::Resolved ra = session.resolve(a);
  const Session::Resolved rb = session.resolve(b);
  EXPECT_EQ(ra.dataset.get(), rb.dataset.get());
  EXPECT_EQ(ra.program.get(), rb.program.get());

  RunRequest other_seed = a;
  other_seed.seed = 99;
  const Session::Resolved rc = session.resolve(other_seed);
  EXPECT_NE(ra.dataset.get(), rc.dataset.get());
  EXPECT_NE(ra.program.get(), rc.program.get());
}

TEST(Session, ClockAndThreadOverridesApply) {
  Session session;
  RunRequest req;
  req.benchmark = kSmall;
  req.config = req.config.with_core_clock(1.2);
  req.config.tile_params.gpe_threads = 4;
  const accel::RunStats rs = session.run(req);
  EXPECT_DOUBLE_EQ(rs.core_clock_ghz, 1.2);

  RunRequest base;
  base.benchmark = kSmall;
  const accel::RunStats def = session.run(base);
  // A 4-thread 1.2 GHz run cannot tie the 16-thread 2.4 GHz default in
  // wall time (cycle counts aren't comparable across clocks).
  EXPECT_GT(rs.millis, def.millis);
}

TEST(Session, RunStatsCarryProgramHashAndCacheSource) {
  Session session;
  RunRequest req;
  req.benchmark = kSmall;

  const accel::RunStats cold = session.run(req);
  EXPECT_EQ(cold.program_cache, "miss");
  EXPECT_EQ(cold.program_hash,
            accel::ir::content_hash(*session.resolve(req).program));

  const accel::RunStats warm = session.run(req);
  EXPECT_EQ(warm.program_cache, "hit");
  EXPECT_EQ(warm.program_hash, cold.program_hash);

  // The provenance pair lands in the stats JSON (schema v4) so cache
  // behavior is observable from --json output alone.
  std::ostringstream os;
  write_run_stats_json(os, warm);
  const json::Value doc = json::Value::parse(os.str());
  EXPECT_EQ(doc.str_or("program_cache", ""), "hit");
  char hash_buf[32];
  std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                static_cast<unsigned long long>(warm.program_hash));
  EXPECT_EQ(doc.str_or("program_hash", ""), hash_buf);
}

TEST(Session, FileLoadedProgramDedupesAgainstLaterCompile) {
  // Save GCN/Cora's program from one session, load it as a .gnna file in
  // another: the later benchmark compile must hash-match the file-loaded
  // program and share its instance (source "dedupe"), not insert a copy.
  const std::string path = ::testing::TempDir() + "dedupe.gnna";
  {
    Session donor;
    RunRequest req;
    req.benchmark = kSmall;
    accel::ir::save_file(*donor.resolve(req).program, path);
  }

  Session session;
  RunRequest from_file;
  from_file.benchmark = kSmall;  // names the dataset to run against
  from_file.program_file = path;
  const Session::Resolved file = session.resolve(from_file);
  EXPECT_EQ(file.source, "file");
  // File loads keep their own provenance and don't touch the counters.
  EXPECT_EQ(session.cache_counters().program_misses, 0U);

  RunRequest compiled;
  compiled.benchmark = kSmall;
  const Session::Resolved dedupe = session.resolve(compiled);
  EXPECT_EQ(dedupe.source, "dedupe");
  EXPECT_EQ(dedupe.hash, file.hash);
  EXPECT_EQ(dedupe.program.get(), file.program.get());

  const Session::Resolved memo = session.resolve(compiled);
  EXPECT_EQ(memo.source, "hit");

  const auto cc = session.cache_counters();
  EXPECT_EQ(cc.program_hits, 1U);
  EXPECT_EQ(cc.program_dedupes, 1U);
  EXPECT_EQ(cc.program_misses, 0U);
}

TEST(Session, BatchManifestRepeatingBenchmarkReportsCacheInStatsJson) {
  // The ISSUE's observability contract end to end: a --batch manifest that
  // repeats a benchmark and varies the seed, run serially through one
  // session, must show the hit/miss split in the per-run stats JSON.
  std::istringstream manifest(
      "benchmark=GCN/Cora repeat=2\n"
      "benchmark=GCN/Cora seed=99\n");
  const std::vector<RunRequest> reqs =
      parse_batch_manifest(manifest, {}, "cache.txt");
  ASSERT_EQ(reqs.size(), 3U);

  Session session;
  BatchRunner runner(session, 1);  // jobs=1 keeps hit/miss order exact
  const std::vector<RunResult> results = runner.run(reqs);
  ASSERT_EQ(results.size(), 3U);
  for (const RunResult& r : results) ASSERT_TRUE(r.ok()) << r.error;

  std::ostringstream os;
  write_batch_json(os, results);
  const json::Value doc = json::Value::parse(os.str());
  ASSERT_EQ(doc.size(), 3U);
  const json::Value& first = doc.items()[0];
  const json::Value& second = doc.items()[1];
  const json::Value& third = doc.items()[2];
  EXPECT_EQ(first.str_or("program_cache", ""), "miss");
  EXPECT_EQ(second.str_or("program_cache", ""), "hit");
  // Seed 99 regenerates Cora with a different topology, so its program is
  // a genuinely new entry, not a dedupe of the seed-2020 program.
  EXPECT_EQ(third.str_or("program_cache", ""), "miss");
  EXPECT_EQ(first.str_or("program_hash", "a"),
            second.str_or("program_hash", "b"));
  EXPECT_NE(first.str_or("program_hash", ""),
            third.str_or("program_hash", ""));

  const auto cc = session.cache_counters();
  EXPECT_EQ(cc.program_hits, 1U);
  EXPECT_EQ(cc.program_misses, 2U);
  EXPECT_EQ(cc.program_dedupes, 0U);
}

TEST(Session, EmptyRequestIsRejected) {
  Session session;
  EXPECT_THROW((void)session.resolve(RunRequest{}), std::invalid_argument);
}

TEST(Session, ProgramWithoutDatasetIsRejected) {
  Session session;
  RunRequest req;
  req.benchmark = kSmall;
  Session::Resolved r = session.resolve(req);
  RunRequest bad;
  bad.program = r.program;  // no dataset attached
  EXPECT_THROW((void)session.resolve(bad), std::invalid_argument);
}

}  // namespace
}  // namespace gnna::sim
