#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace cr {

std::string format_double(double v, int precision) {
  std::ostringstream os;
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

Cell::Cell(std::int64_t v) {
  std::ostringstream os;
  os << v;
  text_ = os.str();
}

Cell::Cell(std::uint64_t v) {
  std::ostringstream os;
  os << v;
  text_ = os.str();
}

Cell::Cell(double v, int precision) : text_(format_double(v, precision)) {}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CR_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<Cell> cells) {
  CR_CHECK(cells.size() == headers_.size());
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (auto& c : cells) row.push_back(c.text());
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  auto print_sep = [&] {
    os << '+';
    for (auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c];
      for (std::size_t i = cells[c].size(); i < widths[c]; ++i) os << ' ';
      os << " |";
    }
    os << '\n';
  };

  if (!title_.empty()) os << title_ << '\n';
  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace cr
