#include "api/params.hpp"

#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/require.hpp"

namespace fne {

Params::Params(std::initializer_list<std::pair<std::string, std::string>> kvs) {
  for (const auto& [k, v] : kvs) values_[k] = v;
}

Params Params::parse(const std::string& spec) {
  Params p;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      // Move-assigned: GCC 12 warns falsely (-Wrestrict) on assign(const char*).
      p.values_[token] = std::string("1");
    } else {
      p.values_[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return p;
}

Params& Params::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
  return *this;
}

Params& Params::set(const std::string& key, std::int64_t value) {
  return set(key, std::to_string(value));
}

Params& Params::set(const std::string& key, double value) {
  std::ostringstream os;
  // max_digits10 keeps the round trip lossless: sweeps that store probe
  // values (e.g. Theorem 3.4's ~1e-6 bound) must run at exactly them.
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return set(key, os.str());
}

bool Params::has(const std::string& key) const { return values_.count(key) != 0; }

std::string Params::get_str(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Params::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  FNE_REQUIRE(end != it->second.c_str() && *end == '\0',
              "param '" + key + "': '" + it->second + "' is not an integer");
  return v;
}

double Params::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  FNE_REQUIRE(end != it->second.c_str() && *end == '\0',
              "param '" + key + "': '" + it->second + "' is not a number");
  return v;
}

bool Params::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  FNE_REQUIRE(false, "param '" + key + "': '" + s + "' is not a boolean");
  return fallback;  // unreachable
}

std::string Params::to_string() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace fne
