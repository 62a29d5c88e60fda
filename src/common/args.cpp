#include "common/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

namespace anadex {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      ANADEX_REQUIRE(!key.empty(), "empty option name '--'");
      ANADEX_REQUIRE(options_.find(key) == options_.end(),
                     "option '--" + key + "' given more than once");
      std::string value;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      options_[key] = value;
      touched_[key] = false;
    } else {
      positionals_.push_back(token);
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return false;
  touched_[key] = true;
  return true;
}

std::string ArgParser::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  ANADEX_REQUIRE(!it->second.empty(), "option '--" + key + "' needs a value");
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  ANADEX_REQUIRE(!it->second.empty(), "option '--" + key + "' needs a value");
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  ANADEX_REQUIRE(end != nullptr && *end == '\0',
                 "option '--" + key + "' value '" + it->second + "' is not an integer");
  ANADEX_REQUIRE(errno != ERANGE,
                 "option '--" + key + "' value '" + it->second + "' is out of range");
  return value;
}

std::size_t ArgParser::get_count(const std::string& key, std::size_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  const std::string& text = it->second;
  ANADEX_REQUIRE(!text.empty(), "option '--" + key + "' needs a value");
  const bool digits = std::all_of(text.begin(), text.end(),
                                  [](char c) { return c >= '0' && c <= '9'; });
  ANADEX_REQUIRE(digits, "option '--" + key + "' value '" + text +
                             "' is not a non-negative integer");
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  ANADEX_REQUIRE(errno != ERANGE && value <= std::numeric_limits<std::size_t>::max(),
                 "option '--" + key + "' value '" + text + "' is out of range");
  return static_cast<std::size_t>(value);
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  ANADEX_REQUIRE(!it->second.empty(), "option '--" + key + "' needs a value");
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  ANADEX_REQUIRE(end != nullptr && *end == '\0',
                 "option '--" + key + "' value '" + it->second + "' is not a number");
  return value;
}

bool ArgParser::get_flag(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return false;
  touched_[key] = true;
  ANADEX_REQUIRE(it->second.empty(),
                 "option '--" + key + "' is a flag and takes no value");
  return true;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> result;
  for (const auto& [key, value] : options_) {
    if (!touched_[key]) result.push_back(key);
  }
  return result;
}

}  // namespace anadex
