// Minimal command-line parsing for the tools/ binaries.
//
// Supports `--key value`, `--key=value` and boolean `--flag` options plus
// bare positional arguments. Unknown options are an error (fail fast rather
// than silently ignoring a typo). Malformed input throws PreconditionError
// whose what() is only the message for the user (it names the option or
// echoes the bad text), with no source location.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace fgcs {

class ArgParser {
 public:
  /// `flag_names`: options that take no value (everything else does).
  ArgParser(int argc, const char* const* argv,
            std::set<std::string> flag_names = {});

  const std::string& program() const { return program_; }

  bool has(const std::string& name) const;

  /// Value options. The *_or forms supply defaults; the plain forms throw
  /// PreconditionError when the option is absent.
  std::string get(const std::string& name) const;
  std::string get_or(const std::string& name, std::string fallback) const;
  std::int64_t get_int(const std::string& name) const;
  std::int64_t get_int_or(const std::string& name, std::int64_t fallback) const;
  /// Bounded forms: throw PreconditionError naming the option when the value
  /// lies outside [lo, hi]. Use them wherever the value is narrowed to an
  /// unsigned, port-sized or size_t field.
  std::int64_t get_int(
      const std::string& name, std::int64_t lo,
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  std::int64_t get_int_or(
      const std::string& name, std::int64_t fallback, std::int64_t lo,
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  double get_double(const std::string& name) const;
  double get_double_or(const std::string& name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Options present on the command line that were never queried — call at
  /// the end of argument handling to reject typos.
  void check_all_consumed() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> consumed_;
};

/// Parses "HH:MM" or "HH:MM:SS" into a second-of-day. The whole string must
/// match: trailing text is an error.
std::int64_t parse_time_of_day(const std::string& text);

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "HOST:PORT", split at the last ':'. HOST must be non-empty and
/// PORT all digits in [1, 65535]; anything else throws PreconditionError
/// naming the text.
Endpoint parse_endpoint(const std::string& text);

}  // namespace fgcs
