// ASCII table renderer for bench/harness output.
//
// Usage:
//   Table t({"n", "slots", "throughput"});
//   t.add_row({Cell(1024), Cell(4096), Cell(0.25, 3)});
//   t.print(std::cout);
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cr {

/// One formatted table cell. Construct from string, integer, or double
/// (with a precision).
class Cell {
 public:
  Cell(std::string s) : text_(std::move(s)) {}          // NOLINT(google-explicit-constructor)
  Cell(const char* s) : text_(s) {}                     // NOLINT(google-explicit-constructor)
  Cell(std::int64_t v);                                 // NOLINT(google-explicit-constructor)
  Cell(std::uint64_t v);                                // NOLINT(google-explicit-constructor)
  Cell(int v) : Cell(static_cast<std::int64_t>(v)) {}   // NOLINT(google-explicit-constructor)
  Cell(double v, int precision = 4);                    // NOLINT(google-explicit-constructor)

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<Cell> cells);
  /// Optional caption printed above the table.
  void set_title(std::string title) { title_ = std::move(title); }

  void print(std::ostream& os) const;
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return headers_.size(); }

  /// Formatted row text, for CSV export (BenchDriver::write_csv). Column names
  /// come from the caller — display headers are not machine-readable.
  const std::vector<std::vector<std::string>>& row_text() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with CSV).
std::string format_double(double v, int precision);

}  // namespace cr
