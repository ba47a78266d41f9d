// ASCII table and CSV output for experiment tables.
//
// Every bench binary prints its result as a Table so EXPERIMENTS.md rows can
// be pasted verbatim; the same data can be dumped as CSV for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fne {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 4);
  Table& cell(std::size_t value);
  Table& cell(long long value);
  Table& cell(int value) { return cell(static_cast<long long>(value)); }
  Table& cell(unsigned value) { return cell(static_cast<std::size_t>(value)); }

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const noexcept { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

  /// Render as a markdown-style aligned table.
  void print(std::ostream& os) const;
  /// Render as CSV (RFC-4180 quoting for cells containing commas/quotes).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helper: "value ± ci" with sensible precision.
[[nodiscard]] std::string format_pm(double value, double halfwidth, int precision = 4);

/// Format helper: fixed notation with `decimals` digits after the point
/// (cell(double, int) takes significant digits, so 20 ms at 1 is "2e+01").
[[nodiscard]] std::string format_fixed(double value, int decimals);

}  // namespace fne
