// CSV both ways for experiment outputs: CsvWriter emits rows, quoting any
// cell that holds a separator; split_csv_row reads such a row back.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace colscore {

class CsvWriter {
 public:
  /// Writes rows to `out`; the header row is emitted on construction.
  CsvWriter(std::ostream& out, const std::vector<std::string>& columns);

  /// Number of values must match the header width.
  void row(const std::vector<std::string>& values);

 private:
  std::ostream& out_;
  std::size_t width_;
};

/// Splits one CSV line into cells, honoring CsvWriter's quoting ('"'-wrapped
/// cells, '""' escapes). Embedded newlines are not supported — nothing in
/// the pipeline emits them. nullopt on a malformed line (unterminated quote,
/// text after a closing quote).
std::optional<std::vector<std::string>> split_csv_row(std::string_view line);

}  // namespace colscore
