// Every document the tools emit parses back through the sim::json reader:
// the stats JSON of a run with profile, attribution and static_model
// blocks, a batch with a failed entry, the gnnaverify report, and a Chrome
// trace. Strings carry quotes, backslashes and control characters, and
// numbers must read back exactly. Also pins the JsonWriter layout rule the
// stats and gnnaverify bytes depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "accel/analysis.hpp"
#include "common/json_writer.hpp"
#include "sim/json.hpp"
#include "sim/stats_json.hpp"
#include "trace/attribution.hpp"
#include "trace/profiler.hpp"
#include "trace/trace.hpp"

namespace gnna::sim {
namespace {

const std::string kHostile = "gc1\"x\\y\n\t\x01z";

accel::RunStats hostile_run() {
  accel::RunStats rs;
  rs.program_name = kHostile;
  rs.config_name = "cpu-iso-bw";
  rs.program_hash = 0x0123456789abcdefULL;
  rs.program_cache = "hit";
  rs.optimized_from = 0xfedcba9876543210ULL;
  rs.cycles = 2871294;
  rs.millis = 2.2588235294117647;
  rs.mem_row_hit_rate = std::nan("");
  rs.mem_banks.push_back({0, 3, 10, 20, 0.1});
  rs.phases.push_back({kHostile, 2797619, 42, 7});

  auto pr = std::make_shared<trace::ProfileReport>();
  trace::PhaseProfile ph;
  ph.name = kHostile;
  ph.end = 2797619;
  ph.busy[static_cast<std::size_t>(trace::Category::kGpe)] = 1.5;
  ph.units.push_back({trace::Category::kDna, 1, 0.3, 2, 0});
  ph.flame.push_back({kHostile, 1, 4.0, 4.0, 4.0});
  ph.counters.push_back({trace::Category::kMem, kHostile, 3, 1.0, 2.0, 1.25});
  pr->phases.push_back(ph);
  rs.profile = pr;

  auto ar = std::make_shared<trace::AttributionReport>();
  ar->top_k = 4;
  ar->span = 2871294;
  ar->tiles.resize(2);
  ar->tiles[1].busy = 7.5;
  ar->vertices.push_back({17, 3.0, 1.0, 1, 2, 64, true});
  rs.attribution = ar;

  auto pa = std::make_shared<accel::ProgramAnalysis>();
  pa->bound_cycles = 2800000.5;
  accel::PhaseModel pm;
  pm.name = kHostile;
  pm.bottleneck = "memory";
  pm.dnq1.concurrency = 3;
  pa->phases.push_back(pm);
  rs.static_model = pa;
  return rs;
}

json::Value parse(const std::ostringstream& os) {
  return json::Value::parse(os.str());
}

void expect_hostile_run(const json::Value& v) {
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.num_or("schema_version", 0), kStatsJsonSchemaVersion);
  EXPECT_EQ(v.str_or("program", ""), kHostile);
  EXPECT_EQ(v.str_or("program_hash", ""), "0123456789abcdef");
  EXPECT_EQ(v.str_or("optimized_from", ""), "fedcba9876543210");
  EXPECT_EQ(v.num_or("cycles", 0), 2871294.0);
  EXPECT_EQ(v.num_or("millis", 0), 2.2588235294117647);
  EXPECT_TRUE(v.find("mem_row_hit_rate")->is_null());
  EXPECT_EQ(v.find("mem_banks")->at(0).num_or("busy_frac", 0), 0.1);
  EXPECT_EQ(v.find("phases")->at(0).str_or("name", ""), kHostile);

  const json::Value& prof = *v.find("profile");
  const json::Value& ph = prof.find("phases")->at(0);
  EXPECT_EQ(ph.str_or("name", ""), kHostile);
  EXPECT_EQ(ph.num_or("cycles", 0), 2797619.0);
  EXPECT_EQ(ph.find("busy")->num_or("gpe", 0), 1.5);
  EXPECT_EQ(ph.find("busy")->size(), 1U);  // zero categories omitted
  EXPECT_EQ(ph.find("completes")->size(), 0U);
  EXPECT_EQ(ph.find("units")->at(0).str_or("cat", ""), "dna");
  EXPECT_EQ(ph.find("flame")->at(0).str_or("path", ""), kHostile);
  EXPECT_EQ(ph.find("counters")->at(0).str_or("name", ""), kHostile);
  EXPECT_EQ(ph.find("counters")->at(0).num_or("mean", 0), 1.25);

  const json::Value& attr = *v.find("attribution");
  EXPECT_EQ(attr.find("tiles")->size(), 2U);
  EXPECT_EQ(attr.find("tiles")->at(1).num_or("busy", 0), 7.5);
  EXPECT_TRUE(attr.find("vertices")->at(0).find("approx")->as_bool());

  const json::Value& model = *v.find("static_model");
  EXPECT_EQ(model.num_or("bound_cycles", 0), 2800000.5);
  EXPECT_EQ(model.find("phases")->at(0).str_or("name", ""), kHostile);
  EXPECT_EQ(model.find("phases")->at(0).num_or("dnq1_concurrency", 0), 3.0);
}

TEST(JsonEmitters, RunStatsWithEveryBlock) {
  std::ostringstream os;
  write_run_stats_json(os, hostile_run());
  expect_hostile_run(parse(os));
}

TEST(JsonEmitters, BatchWithFailedEntry) {
  std::vector<RunResult> results(2);
  results[0].stats = hostile_run();
  results[1].error = "runs.txt:2: \"boom\"\n";
  std::ostringstream os;
  write_batch_json(os, results);
  const json::Value v = parse(os);
  ASSERT_EQ(v.size(), 2U);
  expect_hostile_run(v.at(0));
  EXPECT_EQ(v.at(1).members().size(), 1U);
  EXPECT_EQ(v.at(1).str_or("error", ""), results[1].error);
}

TEST(JsonEmitters, VerifyReportWithDiagnosticsAndFixes) {
  std::vector<LintedProgram> linted(2);
  linted[0].name = kHostile;
  linted[0].report.diagnostics.push_back(
      {accel::LintCode::kReuseDistanceThrash, accel::Severity::kWarning, 0,
       kHostile, "message " + kHostile});
  accel::FixSuggestion fix;
  fix.code = accel::LintCode::kReuseDistanceThrash;
  fix.description = kHostile;
  fix.manifest_snippet = "tile_agg_data_bytes=32768\nseed=1\n";
  fix.verified = true;
  linted[0].fixes.push_back(fix);
  linted[1].name = "bad.gnna";
  linted[1].failure = "bad.gnna:1: expected \"gnna-ir\"";
  std::ostringstream os;
  write_verify_json(os, linted, 1, 1, /*werror=*/true);

  const json::Value v = parse(os);
  EXPECT_EQ(v.num_or("version", 0), 2.0);
  EXPECT_TRUE(v.find("werror")->as_bool());
  EXPECT_EQ(v.num_or("errors", 0), 1.0);
  const json::Value& programs = *v.find("programs");
  ASSERT_EQ(programs.size(), 2U);
  EXPECT_EQ(programs.at(0).str_or("name", ""), kHostile);
  const json::Value& d = programs.at(0).find("diagnostics")->at(0);
  EXPECT_EQ(d.str_or("code", ""), "GV201");
  EXPECT_EQ(d.str_or("severity", ""), "warning");
  EXPECT_EQ(d.str_or("effective_severity", ""), "error");
  EXPECT_TRUE(d.find("promoted")->as_bool());
  EXPECT_EQ(d.str_or("phase_name", ""), kHostile);
  EXPECT_EQ(d.str_or("message", ""), "message " + kHostile);
  const json::Value& f = programs.at(0).find("fixes")->at(0);
  EXPECT_EQ(f.str_or("description", ""), kHostile);
  EXPECT_EQ(f.str_or("manifest_snippet", ""), fix.manifest_snippet);
  EXPECT_EQ(programs.at(1).str_or("failure", ""), linted[1].failure);
  EXPECT_EQ(programs.at(1).find("diagnostics")->size(), 0U);
  EXPECT_EQ(programs.at(1).find("fixes"), nullptr);
}

TEST(JsonEmitters, ChromeTraceEscapesNames) {
  const std::vector<std::string> names = {"gc1\"x", "a\\b", "ctl\x01\x1f",
                                          "line\nbreak"};
  std::ostringstream os;
  {
    trace::ChromeTraceSink sink(os);
    for (const std::string& n : names) {
      sink.complete(trace::Category::kGpe, 0, n.c_str(), 1.0, 2.0, 0, 0);
      sink.instant(trace::Category::kNoc, 1, n.c_str(), 3.0, 0, 0);
      sink.counter(trace::Category::kMem, 0, n.c_str(), 4.0, 5.0);
      sink.phase_begin(n.c_str(), 0.0);
      sink.phase_end(n.c_str(), 6.0);
    }
  }
  const json::Value v = parse(os);
  std::multiset<std::string> read;
  for (const json::Value& e : v.find("traceEvents")->items()) {
    if (e.str_or("ph", "") != "M") read.insert(e.str_or("name", ""));
  }
  std::multiset<std::string> want;
  for (const std::string& n : names) {
    for (int copy = 0; copy < 4; ++copy) want.insert(n);
  }
  EXPECT_EQ(read, want);
}

TEST(JsonEmitters, ChromeTraceNumbersRoundTrip) {
  std::ostringstream os;
  {
    trace::ChromeTraceSink sink(os);
    sink.complete(trace::Category::kGpe, 0, "task", 2871294, 2797619, 0, 0);
    sink.counter(trace::Category::kMem, 0, "depth", 2.2588235294117647,
                 0.1);
    // Chrome's reader rejects non-numbers, so they are written as 0.
    sink.counter(trace::Category::kMem, 0, "nan", std::nan(""),
                 INFINITY);
    sink.phase_begin("gc1", 0.0);
    sink.phase_end("gc1", 2797619);
  }
  const json::Value v = parse(os);
  std::vector<const json::Value*> events;
  for (const json::Value& e : v.find("traceEvents")->items()) {
    if (e.str_or("ph", "") != "M") events.push_back(&e);
  }
  ASSERT_EQ(events.size(), 4U);
  EXPECT_EQ(events[0]->num_or("ts", 0), 2871294.0);
  EXPECT_EQ(events[0]->num_or("dur", 0), 2797619.0);
  EXPECT_EQ(events[1]->num_or("ts", 0), 2.2588235294117647);
  EXPECT_EQ(events[1]->find("args")->num_or("value", -1), 0.1);
  EXPECT_EQ(events[2]->num_or("ts", -1), 0.0);
  EXPECT_EQ(events[2]->find("args")->num_or("value", -1), 0.0);
  EXPECT_EQ(events[3]->str_or("cat", ""), "sim");
  EXPECT_EQ(events[3]->num_or("dur", 0), 2797619.0);
}

TEST(JsonWriter, OneLineAndPerLineLayout) {
  using Layout = JsonWriter::Layout;
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object(Layout::kPerLine).member("a", 1);
  w.key("list").begin_array(Layout::kPerLine);
  w.begin_object().member("x", true).key("inner").begin_array(
      Layout::kPerLine);
  w.value(0.5).end();
  w.key("empty").begin_array(Layout::kPerLine).end().end();
  w.begin_array().value("s").value(-3).end();
  w.end().member("b", "t").end();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"list\": [\n"
            "    {\"x\": true, \"inner\": [\n"
            "      0.5\n"
            "    ], \"empty\": []},\n"
            "    [\"s\", -3]\n"
            "  ],\n"
            "  \"b\": \"t\"\n"
            "}");
}

}  // namespace
}  // namespace gnna::sim
