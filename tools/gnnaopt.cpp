// gnnaopt — optimize GNNA-IR programs, gated by translation validation.
//
// Runs the accel::opt pass pipeline (fuse-phases, dedup-contribs,
// dead-regions, pack-regions) over a .gnna program file, statically
// proving every changing pass equivalent to its input with the
// accel::validate obligations, and writes the optimized program only when
// every proof succeeds. Exit status: 0 = optimized (or already optimal)
// and proven, 1 = refused (unproven rewrite or parse error), 2 = usage.
//
//   gnnaopt prog.gnna                          # optimize in place of stem
//   gnnaopt prog.gnna -o out.gnna              # explicit output
//   gnnaopt --bind GCN/Cora prog.gnna          # + topology obligations
//   gnnaopt --passes dedup-contribs prog.gnna  # pass subset
//   gnnaopt --report report.txt prog.gnna      # write the proof report
//   gnnaopt --list-passes                      # the pass catalog
//
// The validation report prints every obligation of every changing pass
// plus a final end-to-end proof of the whole pipeline (original vs.
// emitted program), so the artifact documents *why* the rewrite is safe.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/ir.hpp"
#include "accel/opt.hpp"
#include "accel/validate.hpp"
#include "sim/manifest.hpp"
#include "sim/session.hpp"

namespace {

using namespace gnna;

void usage(std::ostream& os) {
  os << "usage: gnnaopt [options] <file.gnna>\n"
        "  -o <file>             output path (default: <input stem>"
        ".opt.gnna)\n"
        "  --bind <benchmark>    dataset the program runs against; enables\n"
        "                        the topology-dependent proof obligations\n"
        "                        (walk-tree recomputation, GV012)\n"
        "  --passes <a,b,...>    pass subset, run in the given order\n"
        "                        (default: the full pipeline)\n"
        "  --report <file>       also write the validation report here\n"
        "  --list-passes         print the pass catalog\n"
        "  --quiet               only print errors\n"
        "  --help                this text\n"
        "run flags (gnnasim's; the config they describe sets the scratchpad\n"
        "footprint bound for fusion and the cycle-bound obligation, --seed\n"
        "picks the --bind dataset's variant, and the rest have no effect):\n";
  sim::print_run_flags(os);
}

std::vector<std::string> split_passes(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  std::string report_path;
  std::optional<gnn::Benchmark> bind;
  sim::RunSpec spec;
  std::vector<std::string> passes;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    try {
      if (sim::parse_run_flag(argc, argv, i, spec)) continue;
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--list-passes") {
      for (const auto& p : accel::opt::pass_catalog()) {
        std::cout << p.name << "\n    " << p.summary << "\n";
      }
      return 0;
    }
    if (arg == "-o") {
      const auto v = next();
      if (!v) {
        std::cerr << "error: -o needs a file path\n";
        return 2;
      }
      output = *v;
    } else if (arg == "--bind") {
      const auto v = next();
      const auto b = v ? sim::benchmark_by_name(*v) : std::nullopt;
      if (!b) {
        std::cerr << "error: --bind needs a known benchmark name (try"
                     " gnnasim --list)\n";
        return 2;
      }
      bind = *b;
    } else if (arg == "--passes") {
      const auto v = next();
      if (!v || v->empty()) {
        std::cerr << "error: --passes needs a comma-separated list\n";
        return 2;
      }
      passes = split_passes(*v);
    } else if (arg == "--report") {
      const auto v = next();
      if (!v) {
        std::cerr << "error: --report needs a file path\n";
        return 2;
      }
      report_path = *v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    } else {
      if (!input.empty()) {
        std::cerr << "error: exactly one input .gnna file\n";
        return 2;
      }
      input = arg;
    }
  }
  if (input.empty()) {
    std::cerr << "error: no input file\n";
    usage(std::cerr);
    return 2;
  }
  sim::RunRequest req;
  try {
    req = sim::make_request(spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const accel::AcceleratorConfig& cfg = req.config;
  if (output.empty()) {
    const std::string ext = accel::ir::kIrExtension;
    std::string stem = input;
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
      stem.resize(stem.size() - ext.size());
    }
    output = stem + ".opt" + ext;
  }

  accel::CompiledProgram prog;
  try {
    prog = accel::ir::load_file(input);
  } catch (const std::exception& e) {
    std::cerr << "gnnaopt: cannot load '" << input << "': " << e.what()
              << "\n";
    return 1;
  }

  std::shared_ptr<const graph::Dataset> ds;
  if (bind) {
    ds = sim::Session::global().dataset(gnn::benchmark_dataset(*bind),
                                        req.seed);
  }

  accel::opt::OptimizeOptions oo;
  oo.dataset = ds.get();
  oo.config = &cfg;
  oo.passes = passes;

  accel::opt::OptimizeResult res;
  try {
    res = accel::opt::optimize_program(prog, oo);
  } catch (const std::exception& e) {
    std::cerr << "gnnaopt: " << e.what() << "\n";
    return 2;
  }

  std::ostringstream report;
  report << "program: " << prog.name << "\n"
         << "input:   " << input << " (hash ";
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      accel::ir::content_hash(prog)));
    report << buf << ")\n";
  }
  for (const auto& po : res.passes) {
    report << "pass " << po.pass << ": "
           << (po.changed ? "changed" : "no change") << " — " << po.summary
           << "\n";
    if (po.changed) {
      std::istringstream lines(po.validation.to_string());
      std::string line;
      while (std::getline(lines, line)) report << "  " << line << "\n";
    }
  }

  if (!res.validated) {
    report << "REFUSED: " << res.failure << "\n";
    if (!report_path.empty()) {
      std::ofstream rf(report_path);
      rf << report.str();
    }
    std::cerr << report.str();
    std::cerr << "gnnaopt: refusing to emit an unproven program\n";
    return 1;
  }

  // End-to-end proof of the whole pipeline: original vs. emitted program.
  // Stepwise proofs already gate each pass; this documents the composed
  // rewrite in one report block (and would catch a non-composing chain).
  accel::validate::ValidationOptions vo;
  vo.dataset = ds.get();
  vo.config = &cfg;
  const auto whole =
      accel::validate::validate_transform(prog, res.program, vo);
  report << "end-to-end:\n";
  {
    std::istringstream lines(whole.to_string());
    std::string line;
    while (std::getline(lines, line)) report << "  " << line << "\n";
  }
  if (!whole.equivalent) {
    report << "REFUSED: end-to-end proof failed\n";
    if (!report_path.empty()) {
      std::ofstream rf(report_path);
      rf << report.str();
    }
    std::cerr << report.str();
    std::cerr << "gnnaopt: refusing to emit an unproven program\n";
    return 1;
  }

  try {
    accel::ir::save_file(res.program, output);
  } catch (const std::exception& e) {
    std::cerr << "gnnaopt: cannot write '" << output << "': " << e.what()
              << "\n";
    return 1;
  }
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      accel::ir::content_hash(res.program)));
    report << "output:  " << output << " (hash " << buf << ", "
           << (res.changed() ? "optimized" : "already optimal") << ")\n";
  }

  if (!report_path.empty()) {
    std::ofstream rf(report_path);
    if (!rf) {
      std::cerr << "gnnaopt: cannot write report '" << report_path << "'\n";
      return 1;
    }
    rf << report.str();
  }
  if (!quiet) std::cout << report.str();
  return 0;
}
