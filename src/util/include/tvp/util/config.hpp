// Flat key/value configuration files.
//
// Format: one `key = value` per line, `#` comments, blank lines ignored.
// Keys are dotted paths (`geometry.banks`); values are free text until
// end of line (trimmed). Duplicate keys: last one wins. This is the
// storage layer for exp::config_io, which maps keys onto SimConfig.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tvp::util {

class KeyValueFile {
 public:
  KeyValueFile() = default;

  /// Parses text; throws std::runtime_error with a line number on
  /// malformed lines (no '=').
  static KeyValueFile parse(const std::string& text);
  /// Reads and parses a file; throws std::runtime_error on I/O failure.
  static KeyValueFile load(const std::string& path);

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::size_t size() const noexcept { return values_.size(); }

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Throws std::runtime_error naming the key when the value is not a
  /// number or not finite (nan, inf).
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  /// All keys, sorted (for unknown-key validation and serialisation).
  std::vector<std::string> keys() const;

  /// Serialises back to the file format (sorted keys).
  std::string to_text() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace tvp::util
