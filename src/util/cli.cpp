#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/time.hpp"

namespace fgcs {

namespace {
/// User-input check: the PreconditionError carries only `message`, the
/// text a tool prints, not this file's path and the failed expression.
void require(bool ok, const std::string& message) {
  if (!ok) throw PreconditionError(message);
}
}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::set<std::string> flag_names) {
  FGCS_REQUIRE(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      values_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    if (flag_names.count(name) > 0) {
      flags_.insert(name);
      continue;
    }
    require(i + 1 < argc, "option --" + name + " needs a value");
    values_[name] = argv[++i];
  }
}

bool ArgParser::has(const std::string& name) const {
  consumed_.insert(name);
  return flags_.count(name) > 0 || values_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  require(it != values_.end(), "missing required option --" + name);
  return it->second;
}

std::string ArgParser::get_or(const std::string& name,
                              std::string fallback) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

namespace {
std::int64_t to_int(const std::string& name, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  require(end != nullptr && *end == '\0' && !text.empty(),
          "option --" + name + " expects an integer, got '" + text + "'");
  require(errno != ERANGE,
          "option --" + name + " is out of range: '" + text + "'");
  return value;
}

std::int64_t in_range(const std::string& name, std::int64_t value,
                      std::int64_t lo, std::int64_t hi) {
  require(lo <= value && value <= hi,
          "option --" + name + " must be in [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "], got " + std::to_string(value));
  return value;
}

double to_double(const std::string& name, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  require(
      end != nullptr && *end == '\0' && !text.empty() && std::isfinite(value),
      "option --" + name + " expects a finite number, got '" + text + "'");
  return value;
}
}  // namespace

std::int64_t ArgParser::get_int(const std::string& name) const {
  return to_int(name, get(name));
}

std::int64_t ArgParser::get_int_or(const std::string& name,
                                   std::int64_t fallback) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : to_int(name, it->second);
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t lo,
                              std::int64_t hi) const {
  return in_range(name, get_int(name), lo, hi);
}

std::int64_t ArgParser::get_int_or(const std::string& name,
                                   std::int64_t fallback, std::int64_t lo,
                                   std::int64_t hi) const {
  return in_range(name, get_int_or(name, fallback), lo, hi);
}

double ArgParser::get_double(const std::string& name) const {
  return to_double(name, get(name));
}

double ArgParser::get_double_or(const std::string& name, double fallback) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : to_double(name, it->second);
}

void ArgParser::check_all_consumed() const {
  for (const auto& [name, value] : values_)
    require(consumed_.count(name) > 0, "unknown option --" + name);
  for (const auto& name : flags_)
    require(consumed_.count(name) > 0, "unknown option --" + name);
}

std::int64_t parse_time_of_day(const std::string& text) {
  int hours = 0, minutes = 0, seconds = 0, used = 0;
  // %n records how far each form matched; it does not count as a field.
  const int fields = std::sscanf(text.c_str(), "%d:%d%n:%d%n", &hours,
                                 &minutes, &used, &seconds, &used);
  require(fields >= 2 && static_cast<std::size_t>(used) == text.size(),
          "expected HH:MM or HH:MM:SS, got '" + text + "'");
  require(hours >= 0 && hours < 24 && minutes >= 0 && minutes < 60 &&
              seconds >= 0 && seconds < 60,
          "time of day out of range: '" + text + "'");
  return hours * kSecondsPerHour + minutes * kSecondsPerMinute + seconds;
}

Endpoint parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  const std::string port =
      colon == std::string::npos ? "" : text.substr(colon + 1);
  require(colon != std::string::npos && colon > 0 && !port.empty() &&
              port.size() <= 5 &&
              port.find_first_not_of("0123456789") == std::string::npos,
          "expected HOST:PORT, got '" + text + "'");
  const int value = std::stoi(port);
  require(1 <= value && value <= 65535,
          "port must be in [1, 65535], got '" + text + "'");
  return {text.substr(0, colon), static_cast<std::uint16_t>(value)};
}

}  // namespace fgcs
