// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports --key=value and --flag forms.  Unknown keys are kept so that
// google-benchmark's own flags can pass through untouched; a front end
// with modes names each mode's flags instead (require_only).  The shared
// conventions every driver used to hand-roll live here once: --seed,
// --threads (0/absent = hardware), comma-separated value lists, and the
// --json[=path] resolution (bare flag -> caller's default filename).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/require.hpp"

namespace fne {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// --key=N (absent: `fallback`).  REQUIREs the whole value to parse:
  /// "2x", "abc" or "" fail instead of reading a numeric prefix or 0.
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// --key=N (absent: `fallback`) narrowed to T after a range check:
  /// REQUIREs lo <= N <= hi, failing with "--key=N out of range [lo, hi]"
  /// instead of wrapping an oversized value into a small one.
  template <typename T>
  [[nodiscard]] T get_int_in_range(const std::string& key, std::int64_t fallback,
                                   std::int64_t lo, std::int64_t hi) const {
    return narrow_in_range<T>("--" + key, get_int(key, fallback), lo, hi);
  }
  /// --key=X (absent: `fallback`); REQUIREs the whole value to parse.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// --seed=N in [0, INT64_MAX] (absent: `fallback`): a negative seed
  /// fails instead of wrapping to 2^64 - |N|.
  [[nodiscard]] std::uint64_t get_seed(std::uint64_t fallback = 42) const {
    return has("seed") ? get_int_in_range<std::uint64_t>("seed", 0, 0, INT64_MAX) : fallback;
  }
  /// --threads=N resolved to a worker count: REQUIREs N >= 1; absent (or
  /// explicit 0) falls back to `fallback`, itself 0 meaning "hardware
  /// concurrency" (at least 1).
  [[nodiscard]] int get_threads(int fallback = 0) const;
  /// Comma-separated doubles ("0.05,0.1,0.2"); absent key parses
  /// `fallback_spec` instead.  REQUIREs every token to parse.
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key,
                                                    const std::string& fallback_spec) const;
  /// REQUIREs every flag given to be one of `keys`, the flags `mode`
  /// reads; any other fails as "--flag does not apply to <mode>" instead
  /// of being silently ignored.  A CLI mode calls this once, up front;
  /// benches and examples do not, so google-benchmark's flags pass.
  void require_only(const std::string& mode, std::initializer_list<std::string_view> keys) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Parse a comma-separated double list (the wire format of sweep values).
[[nodiscard]] std::vector<double> parse_double_list(const std::string& spec);

/// Resolve --json[=path]: bare `--json` parses as the value "1" and means
/// "use the caller's default filename"; --json=path wins.
[[nodiscard]] std::string json_flag_path(const Cli& cli, const std::string& fallback);

/// The main() of a bench or example: runs `body` on the parsed flags.  An
/// exception escaping it (a flag out of range, a failed precondition)
/// prints "error: <what>" to stderr and exits 1, instead of aborting
/// through std::terminate.
[[nodiscard]] int cli_main(int argc, char** argv, int (*body)(const Cli&));

}  // namespace fne
