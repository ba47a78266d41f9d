#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string_view>
#include <thread>

#include "util/require.hpp"

namespace fne {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      // Move-assigned: GCC 12 warns falsely (-Wrestrict) on assign(const char*).
      values_[std::string(arg)] = std::string("1");
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  FNE_REQUIRE(end != text && *end == '\0' && errno != ERANGE,
              "--" + key + ": '" + it->second + "' is not an integer");
  return v;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  FNE_REQUIRE(end != text && *end == '\0' && std::isfinite(v),
              "--" + key + ": '" + it->second + "' is not a finite number");
  return v;
}

void Cli::require_only(const std::string& mode,
                       std::initializer_list<std::string_view> keys) const {
  for (const auto& [key, value] : values_) {
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    std::string accepted;
    for (const std::string_view k : keys) {
      accepted += accepted.empty() ? "--" : ", --";
      accepted += k;
    }
    FNE_REQUIRE(false, "--" + key + " does not apply to " + mode + " (it reads " + accepted + ")");
  }
}

int Cli::get_threads(int fallback) const {
  const int threads = get_int_in_range<int>("threads", fallback, 0, INT_MAX);
  return threads != 0 ? threads
                      : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<double> Cli::get_double_list(const std::string& key,
                                         const std::string& fallback_spec) const {
  return parse_double_list(get(key, fallback_spec));
}

std::vector<double> parse_double_list(const std::string& spec) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string token =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!token.empty()) {
      char* end = nullptr;
      const double v = std::strtod(token.c_str(), &end);
      FNE_REQUIRE(end != nullptr && *end == '\0' && end != token.c_str() && std::isfinite(v),
                  "bad number '" + token + "' in list '" + spec + "' (need a finite number)");
      out.push_back(v);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string json_flag_path(const Cli& cli, const std::string& fallback) {
  const std::string path = cli.get("json", fallback);
  return path == "1" ? fallback : path;
}

int cli_main(int argc, char** argv, int (*body)(const Cli&)) {
  try {
    return body(Cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace fne
