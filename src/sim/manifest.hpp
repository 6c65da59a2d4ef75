// Run descriptions: the one key table behind batch manifests, the run
// flags of gnnasim / gnnaverify / gnnaopt, and their help text.
//
// A run is described by key=value pairs (a RunSpec). Every key of
// run_keys() has one setter that parses, range-checks and writes its value
// into a RunRequest or its AcceleratorConfig. A key is spelled
//
//   mem_banks=8          in a manifest line,
//   --mem-banks 8        on the command line,
//
// and a 0|1 key takes `--k` / `--no-k` on the command line (--verify,
// --no-verify, --optimize, --mem-bank-xor, --attribution, ...).
//
// make_request() applies `config` first and every other key on top of it,
// so a key's position never matters: `mem_scheduler=frfcfs
// config=gpu-iso-bw` runs FR-FCFS on the GPU iso-BW mesh.
//
// Batch manifests (`gnnasim --batch <file>`) hold one run per line; blank
// lines and `#` comments are skipped, and each line is whitespace-separated
// key=value tokens:
//
//   benchmark=GCN/Cora config=gpu-iso-bw clock=1.2 threads=32
//   benchmark=GAT/Cora partition=block seed=7 repeat=4 verify=0
//   benchmark=GCN/Cora mem_scheduler=frfcfs mem_banks=8 mem_row_bytes=2048
//   benchmark=GCN/Cora program=progs/gcn_cora.gnna
//   benchmark=GCN/Cora partition=profile-guided attribution_from=p1.json
//
// `benchmark` is required on every line. The command line's run flags are
// per-line defaults that a line overrides key by key, so
// `gnnasim --batch runs.txt --mem-scheduler frfcfs` keeps FR-FCFS on a line
// that sets config=gpu-iso-bw. `repeat=N` is a line directive rather than
// a run key: it expands the line into N identical runs. Unknown keys,
// malformed values and unknown names are errors carrying the line number.
//
// `program=<file>` loads a GNNA-IR .gnna program instead of compiling; the
// benchmark still supplies the dataset (and the seed selects its variant),
// and the loaded program runs through accel::verify before simulation.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/session.hpp"

namespace gnna::sim {

// Strict value parsers: reject garbage, trailing junk, and (for integers)
// negative signs, instead of taking whatever strtoull salvages.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& s);
[[nodiscard]] std::optional<double> parse_f64(const std::string& s);
[[nodiscard]] std::optional<gnn::Benchmark> benchmark_by_name(
    const std::string& name);
[[nodiscard]] std::optional<accel::AcceleratorConfig> config_by_name(
    const std::string& name);

/// One settable key of a run description.
struct RunKey {
  /// Manifest key; the command-line flag is `--` + name with '_' -> '-'.
  std::string_view name;
  /// Value hint for help text; "0|1" marks a bool key.
  std::string_view hint;
  /// One line of --help / --help-batch text.
  std::string_view help;
  /// Parses `value`, range-checks it and writes it into `req`. Throws
  /// std::invalid_argument with the reason, e.g. "must be in [1, 1024]".
  void (*set)(RunRequest& req, const std::string& value);

  [[nodiscard]] bool is_bool() const { return hint == "0|1"; }
  /// "--mem-banks" for mem_banks.
  [[nodiscard]] std::string flag() const;
};

/// The key table, `config` first (make_request applies keys in this order).
[[nodiscard]] std::span<const RunKey> run_keys();

/// A run description: key -> value over run_keys().
using RunSpec = std::map<std::string, std::string>;

/// Check `value` with `key`'s setter and record it in `spec`, replacing an
/// earlier value. Throws std::invalid_argument ("unknown key 'k'" or
/// "<key> <reason>, got '<value>'").
void set_run_key(RunSpec& spec, const std::string& key,
                 const std::string& value);

/// If argv[i] is a run flag, record it in `spec` (advancing `i` past its
/// value) and return true; return false for any other argument. Throws
/// std::invalid_argument on a missing or bad value.
[[nodiscard]] bool parse_run_flag(int argc, const char* const* argv, int& i,
                                  RunSpec& spec);

/// The request `spec` describes: `config` first, then every other key on
/// top of it, then the cross-field memory checks (mem::validate). Throws
/// std::invalid_argument.
[[nodiscard]] RunRequest make_request(const RunSpec& spec);

/// `spec` as a manifest line, keys in table order.
[[nodiscard]] std::string to_manifest_line(const RunSpec& spec);

/// Help text, one row per key: as command-line flags, or as manifest keys.
void print_run_flags(std::ostream& os);
void print_manifest_keys(std::ostream& os);

/// Every run of a manifest, repeats expanded: `defaults` (minus its
/// benchmark and program, since each line names its own workload)
/// overridden key by key by the line. Throws std::invalid_argument with
/// "<source>:<line>: <reason>" on any malformed line.
[[nodiscard]] std::vector<RunSpec> read_manifest(
    std::istream& in, const RunSpec& defaults,
    const std::string& source = "manifest");

/// read_manifest() turned into requests.
[[nodiscard]] std::vector<RunRequest> parse_batch_manifest(
    std::istream& in, const RunSpec& defaults = {},
    const std::string& source = "manifest");

}  // namespace gnna::sim
