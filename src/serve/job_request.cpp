#include "serve/job_request.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::serve {

bool valid_job_id(std::string_view id) {
  if (id.empty() || id.size() > 64 || id.front() == '.') return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace {

/// One parsed right-hand side. The protocol only has four value shapes, so
/// the scanner produces exactly these — anything else is a parse error.
struct Value {
  enum class Kind { Str, Uint, Bool, UintArray };
  Kind kind = Kind::Str;
  std::string str;
  std::uint64_t uint = 0;
  bool boolean = false;
  std::vector<std::uint64_t> array;
};

/// Hand-rolled strict scanner. No escapes, no floats, no nesting beyond a
/// flat uint array, no leading zeros: the grammar is exactly the canonical
/// form write_result_file and the docs emit, so a request either matches
/// byte-for-byte semantics or is rejected with a positioned message.
struct Scanner {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\r' || text[pos] == '\n')) {
      ++pos;
    }
  }

  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }

  char peek() {
    skip_ws();
    ANADEX_REQUIRE(pos < text.size(), "job request: unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    ANADEX_REQUIRE(peek() == c, std::string("job request: expected '") + c +
                                    "' at position " + std::to_string(pos));
    ++pos;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      ANADEX_REQUIRE(pos < text.size(), "job request: unterminated string");
      const char c = text[pos++];
      if (c == '"') break;
      ANADEX_REQUIRE(c != '\\',
                     "job request: escape sequences are not allowed in request strings");
      ANADEX_REQUIRE(static_cast<unsigned char>(c) >= 0x20,
                     "job request: control character inside a string");
      out.push_back(c);
    }
    return out;
  }

  std::uint64_t parse_uint() {
    skip_ws();
    ANADEX_REQUIRE(pos < text.size() && text[pos] >= '0' && text[pos] <= '9',
                   "job request: expected an unsigned integer at position " +
                       std::to_string(pos));
    const std::size_t start = pos;
    std::uint64_t value = 0;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      const std::uint64_t digit = static_cast<std::uint64_t>(text[pos] - '0');
      ANADEX_REQUIRE(value <= (kMax - digit) / 10,
                     "job request: integer overflows 64 bits");
      value = value * 10 + digit;
      ++pos;
    }
    ANADEX_REQUIRE(!(text[start] == '0' && pos - start > 1),
                   "job request: integers must not have leading zeros");
    return value;
  }

  void expect_literal(std::string_view word) {
    ANADEX_REQUIRE(text.compare(pos, word.size(), word) == 0,
                   "job request: malformed value at position " + std::to_string(pos));
    pos += word.size();
  }

  Value parse_value() {
    Value value;
    const char c = peek();
    if (c == '"') {
      value.kind = Value::Kind::Str;
      value.str = parse_string();
    } else if (c >= '0' && c <= '9') {
      value.kind = Value::Kind::Uint;
      value.uint = parse_uint();
    } else if (c == 't' || c == 'f') {
      value.kind = Value::Kind::Bool;
      value.boolean = (c == 't');
      expect_literal(value.boolean ? "true" : "false");
    } else if (c == '[') {
      ++pos;
      value.kind = Value::Kind::UintArray;
      if (peek() != ']') {
        for (;;) {
          value.array.push_back(parse_uint());
          if (peek() == ',') {
            ++pos;
            continue;
          }
          break;
        }
      }
      expect(']');
    } else {
      ANADEX_REQUIRE(false, "job request: malformed value at position " +
                                std::to_string(pos) +
                                " (strings, unsigned integers, booleans and "
                                "unsigned-integer arrays only)");
    }
    return value;
  }
};

const std::string& as_string(const std::string& key, const Value& value) {
  ANADEX_REQUIRE(value.kind == Value::Kind::Str,
                 "job request: \"" + key + "\" must be a string");
  return value.str;
}

std::size_t as_size(const std::string& key, const Value& value) {
  ANADEX_REQUIRE(value.kind == Value::Kind::Uint,
                 "job request: \"" + key + "\" must be an unsigned integer");
  ANADEX_REQUIRE(value.uint <= std::numeric_limits<std::size_t>::max(),
                 "job request: \"" + key + "\" is out of range");
  return static_cast<std::size_t>(value.uint);
}

scint::Spec spec_from_request(const Value& value) {
  if (value.kind == Value::Kind::Str) {
    ANADEX_REQUIRE(value.str == "chosen",
                   "job request: \"spec\" must be \"chosen\" or a suite index");
    return problems::chosen_spec();
  }
  ANADEX_REQUIRE(value.kind == Value::Kind::Uint,
                 "job request: \"spec\" must be \"chosen\" or a suite index");
  const auto suite = problems::spec_suite();
  ANADEX_REQUIRE(value.uint >= 1 && value.uint <= suite.size(),
                 "job request: \"spec\" index must be in 1.." +
                     std::to_string(suite.size()));
  return suite[static_cast<std::size_t>(value.uint) - 1];
}

}  // namespace

JobRequest parse_job_request(const std::string& line) {
  Scanner scan{line};
  scan.expect('{');
  std::map<std::string, Value> entries;
  if (scan.peek() != '}') {
    for (;;) {
      std::string key = scan.parse_string();
      ANADEX_REQUIRE(entries.find(key) == entries.end(),
                     "job request: duplicate key \"" + key + "\"");
      scan.expect(':');
      Value value = scan.parse_value();
      entries.emplace(std::move(key), std::move(value));
      if (scan.peek() == ',') {
        ++scan.pos;
        continue;
      }
      break;
    }
  }
  scan.expect('}');
  ANADEX_REQUIRE(scan.at_end(),
                 "job request: trailing characters after the closing '}'");

  JobRequest request;
  expt::RunSettings& s = request.settings;
  bool saw_id = false;
  bool saw_algo = false;
  bool saw_spec = false;
  for (const auto& [key, value] : entries) {
    if (key == "id") {
      request.id = as_string(key, value);
      ANADEX_REQUIRE(valid_job_id(request.id),
                     "job request: \"id\" must be 1..64 filename-safe "
                     "characters [A-Za-z0-9_.-] and must not start with '.'");
      saw_id = true;
    } else if (key == "algo") {
      s.algo = expt::algo_from_name(as_string(key, value));
      saw_algo = true;
    } else if (key == "spec") {
      s.spec = spec_from_request(value);
      saw_spec = true;
    } else if (key == "population") {
      s.population = as_size(key, value);
    } else if (key == "generations") {
      s.generations = as_size(key, value);
    } else if (key == "partitions") {
      s.partitions = as_size(key, value);
    } else if (key == "islands") {
      s.islands = as_size(key, value);
    } else if (key == "migration_interval") {
      s.migration_interval = as_size(key, value);
    } else if (key == "weight_count") {
      s.weight_count = as_size(key, value);
    } else if (key == "phase1_cap") {
      s.phase1_cap = as_size(key, value);
    } else if (key == "span") {
      s.span = as_size(key, value);
    } else if (key == "history_stride") {
      s.history_stride = as_size(key, value);
    } else if (key == "seed") {
      ANADEX_REQUIRE(value.kind == Value::Kind::Uint,
                     "job request: \"seed\" must be an unsigned integer");
      s.seed = value.uint;
    } else if (key == "mesacga_schedule") {
      ANADEX_REQUIRE(value.kind == Value::Kind::UintArray,
                     "job request: \"mesacga_schedule\" must be an array of "
                     "unsigned integers");
      s.mesacga_schedule.clear();
      for (std::uint64_t v : value.array) {
        s.mesacga_schedule.push_back(static_cast<std::size_t>(v));
      }
    } else if (key == "record_history") {
      ANADEX_REQUIRE(value.kind == Value::Kind::Bool,
                     "job request: \"record_history\" must be true or false");
      s.record_history = value.boolean;
    } else {
      ANADEX_REQUIRE(false, "job request: unknown key \"" + key +
                                "\" (execution knobs — threads, caches, "
                                "paths, deadlines — are service-owned, not "
                                "request keys)");
    }
  }
  ANADEX_REQUIRE(saw_id, "job request: missing required key \"id\"");
  ANADEX_REQUIRE(saw_algo, "job request: missing required key \"algo\"");
  ANADEX_REQUIRE(saw_spec, "job request: missing required key \"spec\"");
  return request;
}

}  // namespace anadex::serve
