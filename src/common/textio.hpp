// Exact, locale-independent text encoding of numeric values plus a small
// line/token reader, shared by the versioned file formats (population
// serialization, run checkpoints).
//
// Doubles are written as C99 hex-floats ("%a"), which round-trip
// bit-for-bit — a requirement for checkpoint/resume, where a restored run
// must reproduce the interrupted run exactly. "inf" and "nan" spellings are
// accepted on input so penalized or degenerate values survive a round trip.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace anadex::textio {

/// Formats `value` exactly (hex-float; "inf"/"-inf"/"nan" for non-finite).
std::string exact(double value);

/// Parses a double accepting decimal, hex-float, inf and nan spellings.
/// Throws PreconditionError unless the whole token is consumed.
double parse_double(const std::string& token);

/// Parses a non-negative integer. Throws PreconditionError, naming the
/// token, on junk or a value above 2^64 - 1.
std::uint64_t parse_u64(const std::string& token);

/// Parses a signed decimal int. Throws PreconditionError, naming the
/// token, on junk or a value outside int.
int parse_int(const std::string& token);

/// Line-oriented reader for the library's versioned text formats: skips
/// blank lines, splits on whitespace, and reports contextual errors.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty line, raw. Throws PreconditionError on EOF, naming
  /// `what` in the message.
  std::string line(const char* what);

  /// Next non-empty line split into whitespace tokens.
  std::vector<std::string> tokens(const char* what);

  /// Like tokens(), but requires the first token to equal `keyword` and at
  /// least `min_values` tokens to follow it.
  std::vector<std::string> record(const char* keyword, std::size_t min_values);

  /// True when no further non-empty line exists.
  bool at_end();

 private:
  std::istream& is_;
  bool has_buffered_ = false;  ///< at_end() buffers one line of lookahead
  std::string buffered_;
};

}  // namespace anadex::textio
