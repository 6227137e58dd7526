#include "runner/sinks.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "sim/trace.hpp"

namespace mltcp::runner {

namespace {

std::string format_double(double value) {
  char buf[64];
  // Same format as sim::CsvWriter so runner-produced CSVs match the
  // hand-written ones byte for byte.
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void write_text(const std::string& path, const std::string& text,
                const char* who) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error(std::string(who) + ": cannot open " + path);
  }
  // A full disk shows up as a short write or, with buffering, only at the
  // flush inside fclose; either way the file is truncated, so fail the run.
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) {
    throw std::runtime_error(std::string(who) + ": write failed on " + path);
  }
}

}  // namespace

// ------------------------------------------------------------------ CsvSink

CsvSink::CsvSink(std::vector<std::string> header)
    : header_(std::move(header)) {}

void CsvSink::append(std::size_t run_index, std::vector<std::string> row) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_by_run_[run_index].push_back(std::move(row));
}

void CsvSink::append(std::size_t run_index, const std::vector<double>& row) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (double v : row) cells.push_back(format_double(v));
  append(run_index, std::move(cells));
}

std::string CsvSink::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    out += sim::csv_escape(header_[i]);
    out += i + 1 < header_.size() ? "," : "\n";
  }
  for (const auto& [run, rows] : rows_by_run_) {
    for (const auto& row : rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        out += sim::csv_escape(row[i]);
        out += i + 1 < row.size() ? "," : "\n";
      }
      if (row.empty()) out += "\n";
    }
  }
  return out;
}

void CsvSink::write(const std::string& path) const {
  write_text(path, serialize(), "CsvSink");
}

std::size_t CsvSink::row_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [run, rows] : rows_by_run_) n += rows.size();
  return n;
}

// ----------------------------------------------------------------- JsonSink

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void JsonSink::put_literal(std::size_t run_index, const std::string& key,
                           std::string literal) {
  std::lock_guard<std::mutex> lock(mu_);
  fields_by_run_[run_index].push_back(Field{key, std::move(literal)});
}

void JsonSink::put(std::size_t run_index, const std::string& key,
                   double value) {
  put_literal(run_index, key, format_double(value));
}

void JsonSink::put(std::size_t run_index, const std::string& key,
                   const std::string& value) {
  put_literal(run_index, key, "\"" + json_escape(value) + "\"");
}

std::string JsonSink::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[\n";
  bool first_run = true;
  for (const auto& [run, fields] : fields_by_run_) {
    if (!first_run) out += ",\n";
    first_run = false;
    out += "  {\"run\": " + std::to_string(run);
    for (const Field& f : fields) {
      out += ", \"" + json_escape(f.key) + "\": " + f.literal;
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

void JsonSink::write(const std::string& path) const {
  write_text(path, serialize(), "JsonSink");
}

}  // namespace mltcp::runner
