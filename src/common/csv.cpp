#include "common/csv.hpp"

#include "common/binio.hpp"

namespace bgp {

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    return cell;
  }
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::append_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) text_ += ',';
    text_ += escape(cells[i]);
  }
  text_ += '\n';
  ++rows_;
}

void CsvWriter::header(const std::vector<std::string>& cols) {
  append_row(cols);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  append_row(cells);
}

void CsvWriter::write_file(const std::filesystem::path& path) const {
  write_file_bytes(path, std::as_bytes(std::span(text_)));
}

}  // namespace bgp
