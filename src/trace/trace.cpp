#include "trace/trace.hpp"

#include <cmath>
#include <cstring>

#include "common/json_writer.hpp"

namespace gnna::trace {
namespace {

/// Chrome's JSON readers reject non-numbers (NaN, Inf, null); clamp to 0.
[[nodiscard]] JsonNumber<double> sanitize(double x) {
  return {std::isfinite(x) ? x : 0.0};
}

}  // namespace

std::size_t category_by_name(const char* name) {
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    if (std::strcmp(name, category_name(static_cast<Category>(c))) == 0) {
      return c;
    }
  }
  return kNumCategories;
}

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  os_ << "\n]}\n";
  os_.flush();
}

void ChromeTraceSink::announce(Category cat, std::uint32_t unit) {
  auto& seen = announced_[static_cast<std::size_t>(cat)];
  if (unit < seen.size() && seen[unit]) return;
  const int pid = static_cast<int>(cat) + 1;
  if (seen.empty()) {
    // First event of the category: name its "process".
    if (!first_) os_ << ',';
    first_ = false;
    os_ << "\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"args\":{\"name\":\"" << category_name(cat) << "\"}}";
  }
  if (unit >= seen.size()) seen.resize(unit + 1, false);
  seen[unit] = true;
  os_ << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pid
      << ",\"tid\":" << unit + 1 << ",\"args\":{\"name\":\""
      << category_name(cat) << '.' << unit << "\"}}";
}

void ChromeTraceSink::begin_event(Category cat, std::uint32_t unit,
                                  const char* name, char phase, double ts) {
  announce(cat, unit);
  if (!first_) os_ << ',';
  first_ = false;
  ++events_;
  os_ << "\n{\"ph\":\"" << phase << "\",\"name\":" << JsonString{name}
      << ",\"cat\":\"" << category_name(cat)
      << "\",\"pid\":" << static_cast<int>(cat) + 1 << ",\"tid\":" << unit + 1
      << ",\"ts\":" << sanitize(ts);
}

void ChromeTraceSink::complete(Category cat, std::uint32_t unit,
                               const char* name, double start, double dur,
                               std::uint64_t a, std::uint64_t b) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  begin_event(cat, unit, name, 'X', start);
  os_ << ",\"dur\":" << sanitize(dur) << ",\"args\":{\"a\":" << a
      << ",\"b\":" << b << "}}";
}

void ChromeTraceSink::instant(Category cat, std::uint32_t unit,
                              const char* name, double at, std::uint64_t a,
                              std::uint64_t b) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  begin_event(cat, unit, name, 'i', at);
  os_ << ",\"s\":\"t\",\"args\":{\"a\":" << a << ",\"b\":" << b << "}}";
}

void ChromeTraceSink::counter(Category cat, std::uint32_t unit,
                              const char* name, double at, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  begin_event(cat, unit, name, 'C', at);
  os_ << ",\"args\":{\"value\":" << sanitize(value) << "}}";
}

void ChromeTraceSink::phase_begin(const char* name, double at) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  open_phases_.emplace_back(name, at);
}

void ChromeTraceSink::phase_end(const char* name, double at) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  // Unmatched ends are dropped (same policy as the Profiler): emitting a
  // zero-length span at `at` would misrepresent the run.
  for (auto it = open_phases_.rbegin(); it != open_phases_.rend(); ++it) {
    if (it->first == name) {
      const double start = it->second;
      open_phases_.erase(std::next(it).base());
      begin_event(Category::kSim, 0, name, 'X', start);
      os_ << ",\"dur\":" << sanitize(at - start) << ",\"args\":{}}";
      return;
    }
  }
}

}  // namespace gnna::trace
