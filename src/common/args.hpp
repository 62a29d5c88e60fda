// Minimal command-line argument parser for the CLI and example binaries:
// positional words plus `--key value` options and `--flag` switches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace anadex {

class ArgParser {
 public:
  /// Parses argv (argv[0] is skipped). A token starting with "--" is an
  /// option; if the next token exists and is not itself an option it becomes
  /// the value, otherwise the option is a boolean flag. Everything else is a
  /// positional argument. Throws PreconditionError on a repeated option.
  ArgParser(int argc, const char* const* argv);

  const std::vector<std::string>& positionals() const { return positionals_; }

  bool has(const std::string& key) const;

  /// Typed getters with defaults; throw PreconditionError when the stored
  /// value does not parse as the requested type.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// A count, size or index: decimal digits only (no sign, blank or
  /// trailing junk) and within std::size_t, or PreconditionError naming
  /// the option.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_flag(const std::string& key) const;

  /// Options that were provided but never queried — typo detection.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> options_;  // "" marks a bare flag
  std::vector<std::string> positionals_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace anadex
