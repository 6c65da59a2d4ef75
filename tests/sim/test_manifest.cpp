// Manifest parsing for `gnnasim --batch` and the run-key table behind it:
// valid files expand to the right requests, every malformed line is
// rejected with the source name and line number in the message, and a key
// means the same thing on a manifest line and on the command line.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/manifest.hpp"

namespace gnna::sim {
namespace {

std::vector<RunRequest> parse(const std::string& text,
                              const RunSpec& defaults = {}) {
  std::istringstream in(text);
  return parse_batch_manifest(in, defaults, "runs.txt");
}

/// Run flags (without the program name) as a RunSpec.
RunSpec parse_flags(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"gnnasim"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  RunSpec spec;
  for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
    if (!parse_run_flag(static_cast<int>(argv.size()), argv.data(), i,
                        spec)) {
      ADD_FAILURE() << "not a run flag: " << argv[i];
    }
  }
  return spec;
}

/// Every field a run key can write, as one comparable string.
std::string fingerprint(const RunRequest& r) {
  const accel::AcceleratorConfig& c = r.config;
  const mem::MemParams& m = c.mem_params;
  const accel::TileParams& t = c.tile_params;
  std::ostringstream os;
  os.precision(17);
  os << (r.benchmark ? gnn::benchmark_name(*r.benchmark) : "-") << " program="
     << r.program_file << " config=" << c.name << " clock_hz="
     << c.core_clock.hz() << " threads=" << t.gpe_threads
     << " agg=" << t.agg_data_bytes << " dnq=" << t.dnq_data_bytes
     << " q0=" << t.dnq_queue0_sixteenths
     << " sched=" << mem::mem_scheduler_name(m.scheduler)
     << " banks=" << m.banks << " row=" << m.row_bytes
     << " hit=" << m.row_hit_ns << " miss=" << m.row_miss_ns
     << " window=" << m.window_entries
     << " interleave=" << m.bank_interleave_bytes << " xor=" << m.bank_xor
     << " partition=" << graph::partition_name(r.partition)
     << " seed=" << r.seed << " verify=" << r.verify
     << " optimize=" << r.optimize << " attribution=" << r.trace.attribution
     << " top_k=" << r.trace.attribution_top_k
     << " from=" << r.attribution_from;
  return os.str();
}

std::string parse_error(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Manifest, StrictNumberParsers) {
  EXPECT_EQ(parse_u64("42"), 42U);
  EXPECT_EQ(parse_u64("0"), 0U);
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("12abc").has_value());
  EXPECT_FALSE(parse_u64("-3").has_value());
  EXPECT_FALSE(parse_u64("1.5").has_value());
  EXPECT_FALSE(parse_u64(" 7").has_value());

  EXPECT_DOUBLE_EQ(parse_f64("2.4").value(), 2.4);
  EXPECT_DOUBLE_EQ(parse_f64("1").value(), 1.0);
  EXPECT_FALSE(parse_f64("").has_value());
  EXPECT_FALSE(parse_f64("1.2x").has_value());
  EXPECT_FALSE(parse_f64("nan").has_value());
}

TEST(Manifest, NameLookups) {
  EXPECT_EQ(benchmark_by_name("GCN/Cora"), gnn::Benchmark::kGcnCora);
  EXPECT_EQ(benchmark_by_name("PGNN/DBLP_1"), gnn::Benchmark::kPgnnDblp);
  EXPECT_FALSE(benchmark_by_name("GCN/Mars").has_value());

  EXPECT_TRUE(config_by_name("cpu-iso-bw").has_value());
  EXPECT_TRUE(config_by_name("gpu-iso-bw").has_value());
  EXPECT_TRUE(config_by_name("gpu-iso-flops").has_value());
  EXPECT_FALSE(config_by_name("tpu").has_value());

  EXPECT_EQ(graph::partition_by_name("round-robin"),
            graph::PartitionPolicy::kRoundRobin);
  EXPECT_EQ(graph::partition_by_name("block"),
            graph::PartitionPolicy::kBlock);
  EXPECT_EQ(graph::partition_by_name("degree-greedy"),
            graph::PartitionPolicy::kDegreeGreedy);
  EXPECT_EQ(graph::partition_by_name("profile-guided"),
            graph::PartitionPolicy::kProfileGuided);
  EXPECT_FALSE(graph::partition_by_name("hash").has_value());
  for (const auto& [policy, name] : graph::kPartitionNames) {
    EXPECT_EQ(graph::partition_name(policy), name);
  }
}

TEST(Manifest, AttributionKeys) {
  const auto reqs = parse(
      "benchmark=GCN/Cora attribution=1 attribution_top_k=128\n"
      "benchmark=GCN/Cora partition=profile-guided "
      "attribution_from=p1.json\n"
      "benchmark=GCN/Cora attribution=0\n");
  ASSERT_EQ(reqs.size(), 3U);
  EXPECT_TRUE(reqs[0].trace.attribution);
  EXPECT_EQ(reqs[0].trace.attribution_top_k, 128U);
  EXPECT_TRUE(reqs[0].attribution_from.empty());
  EXPECT_FALSE(reqs[1].trace.attribution);
  EXPECT_EQ(reqs[1].partition, graph::PartitionPolicy::kProfileGuided);
  EXPECT_EQ(reqs[1].attribution_from, "p1.json");
  EXPECT_FALSE(reqs[2].trace.attribution);
}

TEST(Manifest, RejectsMalformedAttributionValues) {
  EXPECT_NE(parse_error("benchmark=GCN/Cora attribution=yes\n")
                .find("attribution must be 0 or 1"),
            std::string::npos);
  EXPECT_NE(parse_error("benchmark=GCN/Cora attribution_top_k=0\n")
                .find("attribution_top_k"),
            std::string::npos);
  EXPECT_NE(parse_error("benchmark=GCN/Cora attribution_from=\n")
                .find("attribution_from needs a file path"),
            std::string::npos);
}

TEST(Manifest, ParsesRunsWithCommentsAndBlankLines) {
  const auto reqs = parse(
      "# nightly sweep\n"
      "\n"
      "benchmark=GCN/Cora\n"
      "  benchmark=GAT/Cora config=gpu-iso-bw clock=1.2 threads=32 "
      "partition=block seed=7\n"
      "\n"
      "# trailing comment\n");
  ASSERT_EQ(reqs.size(), 2U);

  EXPECT_EQ(reqs[0].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_DOUBLE_EQ(reqs[0].config.core_clock.ghz(), 2.4);
  EXPECT_EQ(reqs[0].config.tile_params.gpe_threads, 16U);
  EXPECT_EQ(reqs[0].seed, 2020U);
  EXPECT_EQ(reqs[0].partition, graph::PartitionPolicy::kRoundRobin);

  EXPECT_EQ(reqs[1].benchmark, gnn::Benchmark::kGatCora);
  EXPECT_EQ(reqs[1].config.name,
            accel::AcceleratorConfig::gpu_iso_bw().name);
  EXPECT_DOUBLE_EQ(reqs[1].config.core_clock.ghz(), 1.2);
  EXPECT_EQ(reqs[1].config.tile_params.gpe_threads, 32U);
  EXPECT_EQ(reqs[1].seed, 7U);
  EXPECT_EQ(reqs[1].partition, graph::PartitionPolicy::kBlock);
}

TEST(Manifest, DefaultsFlowIntoUnsetKeys) {
  const RunSpec defaults = {{"clock", "1.0"}, {"threads", "8"},
                            {"seed", "13"}};
  const auto reqs = parse(
      "benchmark=GCN/Cora\n"
      "benchmark=GCN/Cora clock=2.4 seed=99\n",
      defaults);
  ASSERT_EQ(reqs.size(), 2U);
  EXPECT_DOUBLE_EQ(reqs[0].config.core_clock.ghz(), 1.0);
  EXPECT_EQ(reqs[0].config.tile_params.gpe_threads, 8U);
  EXPECT_EQ(reqs[0].seed, 13U);
  // Per-line keys override the defaults without disturbing other keys.
  EXPECT_DOUBLE_EQ(reqs[1].config.core_clock.ghz(), 2.4);
  EXPECT_EQ(reqs[1].config.tile_params.gpe_threads, 8U);
  EXPECT_EQ(reqs[1].seed, 99U);
}

TEST(Manifest, RepeatExpandsIntoIdenticalRuns) {
  const auto reqs = parse(
      "benchmark=GCN/Cora repeat=3\n"
      "benchmark=GAT/Cora\n");
  ASSERT_EQ(reqs.size(), 4U);
  EXPECT_EQ(reqs[0].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_EQ(reqs[1].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_EQ(reqs[2].benchmark, gnn::Benchmark::kGcnCora);
  EXPECT_EQ(reqs[3].benchmark, gnn::Benchmark::kGatCora);
}

TEST(Manifest, ErrorsCarrySourceAndLineNumber) {
  EXPECT_NE(parse_error("benchmark=GCN/Cora\nbenchmark=GCN/Mars\n")
                .find("runs.txt:2"),
            std::string::npos);
  EXPECT_NE(parse_error("flux=9\n").find("runs.txt:1"), std::string::npos);
}

TEST(Manifest, RejectsUnknownKey) {
  const std::string msg = parse_error("benchmark=GCN/Cora flux=9\n");
  EXPECT_NE(msg.find("flux"), std::string::npos);
}

TEST(Manifest, RejectsMissingBenchmark) {
  EXPECT_FALSE(parse_error("clock=1.2\n").empty());
}

TEST(Manifest, RejectsMalformedValues) {
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora seed=abc\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora clock=fast\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora clock=0\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora clock=9.9\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora threads=0\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora threads=-4\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora repeat=0\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora config=tpu\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora partition=hash\n").empty());
  EXPECT_FALSE(parse_error("benchmark=GCN/Cora benchmark\n").empty());
}

TEST(Manifest, EmptyManifestYieldsNoRuns) {
  EXPECT_TRUE(parse("").empty());
  EXPECT_TRUE(parse("# only comments\n\n").empty());
}

// One in-range and one out-of-range value per table key. Every key must
// have a sample, and each in-range sample must differ from the default so
// the test sees its setter write something.
const std::map<std::string, std::pair<std::string, std::string>>&
key_samples() {
  static const std::map<std::string, std::pair<std::string, std::string>>
      samples = {
          {"config", {"gpu-iso-flops", "tpu"}},
          {"benchmark", {"GAT/Cora", "GCN/Mars"}},
          {"program", {"progs/gcn_cora.gnna", ""}},
          {"clock", {"1.2", "9.9"}},
          {"threads", {"4", "4294967297"}},
          {"partition", {"block", "hash"}},
          {"seed", {"7", "-1"}},
          {"verify", {"0", "2"}},
          {"optimize", {"1", "yes"}},
          {"attribution", {"1", "on"}},
          {"attribution_top_k", {"128", "0"}},
          {"attribution_from", {"p1.json", ""}},
          {"mem_scheduler", {"frfcfs", "fifo"}},
          {"mem_banks", {"4", "1025"}},
          {"mem_row_bytes", {"4096", "0"}},
          {"mem_row_hit_ns", {"8", "-1"}},
          {"mem_row_miss_ns", {"36", "nan"}},
          {"mem_window", {"32", "4097"}},
          {"mem_bank_interleave_bytes", {"128", "1073741825"}},
          {"mem_bank_xor", {"1", "true"}},
          {"tile_agg_data_bytes", {"16384", "0"}},
          {"tile_dnq_data_bytes", {"4096", "1073741825"}},
          {"tile_dnq_queue0_sixteenths", {"14", "17"}},
      };
  return samples;
}

/// The manifest line and the command line that set `key` to `value` on
/// top of GCN/Cora.
std::string sample_line(const std::string& key, const std::string& value) {
  return key == "benchmark" ? "benchmark=" + value
                            : "benchmark=GCN/Cora " + key + "=" + value;
}
std::vector<std::string> sample_args(const RunKey& k,
                                     const std::string& value) {
  std::vector<std::string> args = {"--benchmark", "GCN/Cora"};
  if (k.name == "benchmark") args.clear();
  if (k.is_bool()) {
    args.push_back(value == "1" ? k.flag() : "--no-" + k.flag().substr(2));
  } else {
    args.push_back(k.flag());
    args.push_back(value);
  }
  return args;
}

std::string manifest_error(const std::string& line) {
  const std::string msg = parse_error(line + "\n");
  const std::string prefix = "runs.txt:1: ";
  EXPECT_EQ(msg.rfind(prefix, 0), 0U) << msg;
  return msg.substr(std::min(prefix.size(), msg.size()));
}

std::string flag_error(const std::vector<std::string>& args) {
  try {
    (void)make_request(parse_flags(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ManifestKeys, ManifestAndCommandLineAgreeOnEveryKey) {
  const RunRequest plain = parse("benchmark=GCN/Cora\n").at(0);
  for (const RunKey& k : run_keys()) {
    const std::string key(k.name);
    SCOPED_TRACE(key);
    const auto sample = key_samples().find(key);
    if (sample == key_samples().end()) {
      ADD_FAILURE() << "no sample values for run key " << key;
      continue;
    }
    const auto& [good, bad] = sample->second;

    const auto reqs = parse(sample_line(key, good) + "\n");
    ASSERT_EQ(reqs.size(), 1U);
    const RunRequest via_flags =
        make_request(parse_flags(sample_args(k, good)));
    EXPECT_EQ(fingerprint(reqs[0]), fingerprint(via_flags));
    EXPECT_NE(fingerprint(reqs[0]), fingerprint(plain));

    const std::string err = manifest_error(sample_line(key, bad));
    EXPECT_EQ(err.rfind(key + " ", 0), 0U) << err;
    // A bool flag carries no value on the command line (--k / --no-k), so
    // its out-of-range sample exists on the manifest route only.
    if (!k.is_bool()) {
      EXPECT_EQ(err, flag_error(sample_args(k, bad)));
    }
  }
  EXPECT_EQ(key_samples().size(), run_keys().size())
      << "a sample names a key the table does not have";
}

TEST(ManifestKeys, RepeatIsALineDirectiveNotARunKey) {
  for (const RunKey& k : run_keys()) EXPECT_NE(k.name, "repeat");
  const char* argv[] = {"gnnasim", "--repeat", "2"};
  int i = 1;
  RunSpec spec;
  EXPECT_FALSE(parse_run_flag(3, argv, i, spec));
  EXPECT_EQ(i, 1);
  EXPECT_TRUE(spec.empty());
}

TEST(ManifestKeys, FlagSpellingsComeFromTheKey) {
  const RunSpec spec =
      parse_flags({"--mem-bank-interleave-bytes", "128", "--no-verify",
                   "--optimize", "--mem-bank-xor", "--attribution",
                   "--attribution-top-k", "32"});
  const RunRequest req = make_request(spec);
  EXPECT_EQ(req.config.mem_params.bank_interleave_bytes, 128U);
  EXPECT_FALSE(req.verify);
  EXPECT_TRUE(req.optimize);
  EXPECT_TRUE(req.config.mem_params.bank_xor);
  EXPECT_TRUE(req.trace.attribution);
  EXPECT_EQ(req.trace.attribution_top_k, 32U);
}

TEST(ManifestKeys, ThreadCountIsRangeCheckedNotTruncated) {
  // 2^32 + 1 used to wrap to one GPE thread on the command line.
  EXPECT_NE(flag_error({"--threads", "4294967297"})
                .find("threads must be in [1, 4096]"),
            std::string::npos);
  EXPECT_THROW((void)parse_flags({"--threads"}), std::invalid_argument);
}

TEST(ManifestKeys, ClockAndThreadsWriteTheConfig) {
  const auto reqs = parse("benchmark=GCN/Cora clock=1.2 threads=4\n");
  ASSERT_EQ(reqs.size(), 1U);
  EXPECT_DOUBLE_EQ(reqs[0].config.core_clock.ghz(), 1.2);
  EXPECT_EQ(reqs[0].config.tile_params.gpe_threads, 4U);
}

TEST(ManifestKeys, ConfigAppliesFirstWhereverItSits) {
  const auto reqs = parse(
      "benchmark=GCN/Cora mem_scheduler=frfcfs config=gpu-iso-bw\n"
      "benchmark=GCN/Cora config=gpu-iso-bw mem_scheduler=frfcfs\n"
      "threads=4 mem_banks=4 config=gpu-iso-flops benchmark=GCN/Cora\n");
  ASSERT_EQ(reqs.size(), 3U);
  EXPECT_EQ(fingerprint(reqs[0]), fingerprint(reqs[1]));
  EXPECT_EQ(reqs[0].config.mem_params.scheduler, mem::MemScheduler::kFrFcfs);
  EXPECT_EQ(reqs[0].config.name,
            accel::AcceleratorConfig::gpu_iso_bw().name);
  EXPECT_EQ(reqs[2].config.tile_params.gpe_threads, 4U);
  EXPECT_EQ(reqs[2].config.mem_params.banks, 4U);
}

TEST(ManifestKeys, CommandLineDefaultsSurviveALineConfig) {
  const RunSpec defaults =
      parse_flags({"--mem-scheduler", "frfcfs", "--clock", "1.2"});
  const auto reqs = parse(
      "benchmark=GCN/Cora config=gpu-iso-bw\n"
      "benchmark=GCN/Cora config=gpu-iso-bw mem_scheduler=in_order\n",
      defaults);
  ASSERT_EQ(reqs.size(), 2U);
  EXPECT_EQ(reqs[0].config.name,
            accel::AcceleratorConfig::gpu_iso_bw().name);
  EXPECT_EQ(reqs[0].config.mem_params.scheduler, mem::MemScheduler::kFrFcfs);
  EXPECT_DOUBLE_EQ(reqs[0].config.core_clock.ghz(), 1.2);
  // A line overrides the defaults key by key.
  EXPECT_EQ(reqs[1].config.mem_params.scheduler,
            mem::MemScheduler::kInOrder);
  EXPECT_DOUBLE_EQ(reqs[1].config.core_clock.ghz(), 1.2);
}

TEST(ManifestKeys, DefaultWorkloadDoesNotLeakIntoLines) {
  const RunSpec defaults = parse_flags({"--benchmark", "GCN/Cora"});
  std::istringstream in("clock=1.2\n");
  EXPECT_THROW((void)parse_batch_manifest(in, defaults, "runs.txt"),
               std::invalid_argument);
}

TEST(ManifestKeys, ManifestLineRoundTrips) {
  std::istringstream in(
      "mem_banks=4 benchmark=GAT/Cora config=gpu-iso-bw repeat=2\n");
  const std::vector<RunSpec> specs = read_manifest(in, {}, "runs.txt");
  ASSERT_EQ(specs.size(), 2U);
  const std::string line = to_manifest_line(specs[0]);
  EXPECT_EQ(line, "config=gpu-iso-bw benchmark=GAT/Cora mem_banks=4");
  EXPECT_EQ(fingerprint(parse(line + "\n").at(0)),
            fingerprint(make_request(specs[0])));
}

TEST(ManifestKeys, CrossFieldMemoryChecksRunOnTheWholeLine) {
  // row_bytes must be a multiple of the bank interleave, whichever key
  // comes first.
  EXPECT_NE(parse_error("benchmark=GCN/Cora mem_row_bytes=100 "
                        "mem_scheduler=frfcfs\n")
                .find("runs.txt:1: MemParams"),
            std::string::npos);
}

}  // namespace
}  // namespace gnna::sim
