#include "sim/manifest.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "mem/memory.hpp"

namespace gnna::sim {
namespace {

[[noreturn]] void reject(const std::string& reason) {
  throw std::invalid_argument(reason);
}

/// "[lo, hi]", writing a large power-of-two bound as 2^k.
std::string range_text(std::uint64_t lo, std::uint64_t hi) {
  const std::string top = hi > 4096 && std::has_single_bit(hi)
                              ? "2^" + std::to_string(std::countr_zero(hi))
                              : std::to_string(hi);
  return "[" + std::to_string(lo) + ", " + top + "]";
}

std::uint32_t count_in(const std::string& v, std::uint64_t lo,
                       std::uint64_t hi) {
  const auto n = parse_u64(v);
  if (!n || *n < lo || *n > hi) reject("must be in " + range_text(lo, hi));
  return static_cast<std::uint32_t>(*n);
}

double nanos(const std::string& v) {
  const auto ns = parse_f64(v);
  if (!ns || *ns < 0.0) reject("must be a number >= 0");
  return *ns;
}

bool zero_one(const std::string& v) {
  if (v != "0" && v != "1") reject("must be 0 or 1");
  return v == "1";
}

std::string file_path(const std::string& v) {
  // Manifest tokens are whitespace-separated, so paths cannot contain
  // whitespace there.
  if (v.empty()) reject("needs a file path");
  return v;
}

template <class T>
T named(const std::optional<T>& found, const std::string& choices) {
  if (!found) reject("must be " + choices);
  return *found;
}

using R = RunRequest;
using V = const std::string&;

// `config` replaces the whole AcceleratorConfig, so it stays first:
// make_request applies keys in table order.
constexpr RunKey kRunKeys[] = {
    {"config", "<name>",
     "cpu-iso-bw | gpu-iso-bw | gpu-iso-flops (default cpu-iso-bw)",
     [](R& r, V v) {
       r.config = named(config_by_name(v),
                        "cpu-iso-bw | gpu-iso-bw | gpu-iso-flops");
     }},
    {"benchmark", "<name>", "Table VII benchmark, e.g. GCN/Cora (--list)",
     [](R& r, V v) {
       r.benchmark = named(benchmark_by_name(v), "one of gnnasim --list");
     }},
    {"program", "<file>",
     "run a GNNA-IR .gnna program instead of compiling; the benchmark "
     "names its dataset",
     [](R& r, V v) { r.program_file = file_path(v); }},
    {"clock", "<ghz>", "core clock in GHz (default 2.4; the NoC stays at 2.4)",
     [](R& r, V v) {
       const auto ghz = parse_f64(v);
       if (!ghz || *ghz <= 0.0 || *ghz > 2.4 + 1e-9) {
         reject("must be a number in (0, 2.4] GHz");
       }
       r.config.core_clock = Frequency::giga_hertz(*ghz);
     }},
    {"threads", "<n>", "GPE software threads (default 16)",
     [](R& r, V v) {
       r.config.tile_params.gpe_threads = count_in(v, 1, 4096);
     }},
    {"partition", "<policy>",
     "round-robin | block | degree-greedy | profile-guided (default "
     "round-robin)",
     [](R& r, V v) {
       r.partition =
           named(graph::partition_by_name(v),
                 "round-robin | block | degree-greedy | profile-guided");
     }},
    {"seed", "<n>", "dataset seed (default 2020)",
     [](R& r, V v) { r.seed = named(parse_u64(v), "a number"); }},
    {"verify", "0|1",
     "static program verification before simulating (default 1)",
     [](R& r, V v) { r.verify = zero_one(v); }},
    {"optimize", "0|1",
     "run the validator-gated GNNA-IR optimizer first (default 0)",
     [](R& r, V v) { r.optimize = zero_one(v); }},
    {"attribution", "0|1", "charge work to owning vertices and tiles",
     [](R& r, V v) { r.trace.attribution = zero_one(v); }},
    {"attribution_top_k", "<n>", "attribution hotspot-table bound (default 64)",
     [](R& r, V v) { r.trace.attribution_top_k = count_in(v, 1, 1U << 24); }},
    {"attribution_from", "<file>",
     "prior run's stats JSON that partition profile-guided rebalances from",
     [](R& r, V v) { r.attribution_from = file_path(v); }},
    {"mem_scheduler", "<name>",
     "in_order (default; the paper's model) | frfcfs (banked open-row)",
     [](R& r, V v) {
       r.config.mem_params.scheduler =
           named(mem::mem_scheduler_by_name(v), "in_order | frfcfs");
     }},
    {"mem_banks", "<n>", "FR-FCFS DRAM banks (default 8)",
     [](R& r, V v) { r.config.mem_params.banks = count_in(v, 1, 1024); }},
    {"mem_row_bytes", "<n>", "FR-FCFS open-row bytes (default 2048)",
     [](R& r, V v) {
       r.config.mem_params.row_bytes = count_in(v, 1, 1U << 30);
     }},
    {"mem_row_hit_ns", "<ns>", "FR-FCFS open-row latency (default 10)",
     [](R& r, V v) { r.config.mem_params.row_hit_ns = nanos(v); }},
    {"mem_row_miss_ns", "<ns>", "FR-FCFS closed-row latency (default 30)",
     [](R& r, V v) { r.config.mem_params.row_miss_ns = nanos(v); }},
    {"mem_window", "<n>", "FR-FCFS scheduling-window entries (default 16)",
     [](R& r, V v) {
       r.config.mem_params.window_entries = count_in(v, 1, 4096);
     }},
    {"mem_bank_interleave_bytes", "<n>",
     "FR-FCFS address-to-bank stride (default 64)",
     [](R& r, V v) {
       r.config.mem_params.bank_interleave_bytes = count_in(v, 1, 1U << 30);
     }},
    {"mem_bank_xor", "0|1",
     "FR-FCFS: XOR the bank index with the row index (default 0)",
     [](R& r, V v) { r.config.mem_params.bank_xor = zero_one(v); }},
    {"tile_agg_data_bytes", "<n>",
     "per-tile AGG scratchpad bytes (gnnaverify --fix, GV201)",
     [](R& r, V v) {
       r.config.tile_params.agg_data_bytes = count_in(v, 1, 1U << 30);
     }},
    {"tile_dnq_data_bytes", "<n>", "per-tile DNQ scratchpad bytes",
     [](R& r, V v) {
       r.config.tile_params.dnq_data_bytes = count_in(v, 1, 1U << 30);
     }},
    {"tile_dnq_queue0_sixteenths", "<n>",
     "DNQ scratchpad sixteenths given to virtual queue 0 (default 8)",
     [](R& r, V v) {
       r.config.tile_params.dnq_queue0_sixteenths = count_in(v, 0, 16);
     }},
};

const RunKey& find_key(const std::string& key) {
  for (const RunKey& k : kRunKeys) {
    if (k.name == key) return k;
  }
  reject("unknown key '" + key + "'");
}

void apply(const RunKey& k, RunRequest& req, const std::string& value) {
  try {
    k.set(req, value);
  } catch (const std::invalid_argument& e) {
    reject(std::string(k.name) + " " + e.what() + ", got '" + value + "'");
  }
}

/// One row per key: the spelling, then the help text from a fixed column,
/// word-wrapped to 80 characters.
void print_rows(std::ostream& os, bool as_flags) {
  constexpr std::size_t kColumn = 29;
  constexpr std::size_t kWidth = 80;
  for (const RunKey& k : kRunKeys) {
    std::string line = "  ";
    if (!as_flags) {
      line += std::string(k.name) + "=" + std::string(k.hint);
    } else if (k.is_bool()) {
      line += "--[no-]" + k.flag().substr(2);
    } else {
      line += k.flag() + " " + std::string(k.hint);
    }
    bool in_help = false;  // `line` already holds help words
    std::istringstream words{std::string(k.help)};
    for (std::string word; words >> word;) {
      if (in_help && line.size() + 1 + word.size() <= kWidth) {
        line += ' ' + word;
        continue;
      }
      if (line.size() >= kColumn) {
        os << line << '\n';
        line.clear();
      }
      line.resize(kColumn, ' ');
      line += word;
      in_help = true;
    }
    os << line << '\n';
  }
}

}  // namespace

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  // from_chars is exactly as strict as we want: no leading whitespace, no
  // sign, no trailing junk.
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  return v;
}

std::optional<double> parse_f64(const std::string& s) {
  // stod tolerates leading whitespace, hex floats, and "nan"/"inf"; none
  // of those are meaningful manifest values, so require a leading digit,
  // sign, or '.', and a finite result.
  if (s.empty()) return std::nullopt;
  const char c = s.front();
  if (!(c >= '0' && c <= '9') && c != '-' && c != '+' && c != '.') {
    return std::nullopt;
  }
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<gnn::Benchmark> benchmark_by_name(const std::string& name) {
  for (const gnn::Benchmark b : gnn::kAllBenchmarks) {
    if (gnn::benchmark_name(b) == name) return b;
  }
  return std::nullopt;
}

std::optional<accel::AcceleratorConfig> config_by_name(
    const std::string& name) {
  if (name == "cpu-iso-bw") return accel::AcceleratorConfig::cpu_iso_bw();
  if (name == "gpu-iso-bw") return accel::AcceleratorConfig::gpu_iso_bw();
  if (name == "gpu-iso-flops") {
    return accel::AcceleratorConfig::gpu_iso_flops();
  }
  return std::nullopt;
}

std::string RunKey::flag() const {
  std::string f = "--" + std::string(name);
  std::replace(f.begin(), f.end(), '_', '-');
  return f;
}

std::span<const RunKey> run_keys() { return kRunKeys; }

void set_run_key(RunSpec& spec, const std::string& key,
                 const std::string& value) {
  RunRequest scratch;
  apply(find_key(key), scratch, value);
  spec[key] = value;
}

bool parse_run_flag(int argc, const char* const* argv, int& i,
                    RunSpec& spec) {
  const std::string arg = argv[i];
  for (const RunKey& k : kRunKeys) {
    const std::string flag = k.flag();
    if (k.is_bool()) {
      if (arg != flag && arg != "--no-" + flag.substr(2)) continue;
      set_run_key(spec, std::string(k.name), arg == flag ? "1" : "0");
      return true;
    }
    if (arg != flag) continue;
    if (i + 1 >= argc) reject(flag + " needs " + std::string(k.hint));
    set_run_key(spec, std::string(k.name), argv[++i]);
    return true;
  }
  return false;
}

RunRequest make_request(const RunSpec& spec) {
  RunRequest req;
  for (const RunKey& k : kRunKeys) {
    const auto it = spec.find(std::string(k.name));
    if (it != spec.end()) apply(k, req, it->second);
  }
  mem::validate(req.config.mem_params);
  return req;
}

std::string to_manifest_line(const RunSpec& spec) {
  std::string line;
  for (const RunKey& k : kRunKeys) {
    const auto it = spec.find(std::string(k.name));
    if (it == spec.end()) continue;
    if (!line.empty()) line += ' ';
    line += it->first + "=" + it->second;
  }
  return line;
}

void print_run_flags(std::ostream& os) { print_rows(os, true); }

void print_manifest_keys(std::ostream& os) { print_rows(os, false); }

std::vector<RunSpec> read_manifest(std::istream& in, const RunSpec& defaults,
                                   const std::string& source) {
  RunSpec base = defaults;
  base.erase("benchmark");
  base.erase("program");
  std::vector<RunSpec> runs;
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    line.erase(std::min(line.find('#'), line.size()));
    std::istringstream tokens(line);
    RunSpec spec = base;
    std::uint64_t repeat = 1;
    bool any = false;
    try {
      for (std::string token; tokens >> token;) {
        any = true;
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
          reject("expected key=value tokens, got '" + token + "'");
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "repeat") {
          const auto r = parse_u64(value);
          if (!r || *r == 0 || *r > 100000) {
            reject("repeat must be in [1, 100000], got '" + value + "'");
          }
          repeat = *r;
        } else {
          set_run_key(spec, key, value);
        }
      }
      if (!any) continue;  // blank or comment-only line
      if (spec.count("benchmark") == 0) {
        reject(spec.count("program") == 0
                   ? "line names no benchmark"
                   : "program= also needs benchmark= (it names the dataset "
                     "the program runs against)");
      }
      (void)make_request(spec);  // the cross-field memory checks
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(source + ":" + std::to_string(lineno) +
                                  ": " + e.what());
    }
    runs.insert(runs.end(), repeat, spec);
  }
  return runs;
}

std::vector<RunRequest> parse_batch_manifest(std::istream& in,
                                             const RunSpec& defaults,
                                             const std::string& source) {
  std::vector<RunRequest> requests;
  for (const RunSpec& spec : read_manifest(in, defaults, source)) {
    requests.push_back(make_request(spec));
  }
  return requests;
}

}  // namespace gnna::sim
