// Shared parser for prediction batch request files (used by fgcs_predict
// --batch and fgcs_metrics).
//
// Each non-empty, non-'#' line reads
//
//   TRACE_FILE HH:MM HOURS [DAY] [S1|S2]
//
// where DAY defaults to the day after the trace's recorded history and the
// initial state to the estimator's majority vote. Each distinct trace file
// is loaded once; the returned requests point into `traces`, whose map nodes
// give them stable MachineTrace addresses.
#pragma once

#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "trace/machine_trace.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace fgcs::tools {

struct BatchFile {
  /// Keyed by trace file path. Must outlive `requests`, which point into it.
  std::map<std::string, MachineTrace> traces;
  std::vector<BatchRequest> requests;
};

/// Parses `path`. Throws DataError on unreadable files or malformed lines
/// (message carries file:line, including for a bad HH:MM or a day number
/// with trailing text).
inline BatchFile load_batch_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw DataError("cannot open batch file " + path);

  BatchFile batch;
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    throw DataError(path + ":" + std::to_string(line_no) + ": " + what);
  };
  while (std::getline(file, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string trace_path;
    if (!(fields >> trace_path) || trace_path.front() == '#') continue;

    std::string start;
    std::int64_t hours = 0;
    if (!(fields >> start >> hours)) fail("expected TRACE HH:MM HOURS");
    auto it = batch.traces.find(trace_path);
    if (it == batch.traces.end())
      it = batch.traces
               .emplace(trace_path, MachineTrace::load_file(trace_path))
               .first;
    const MachineTrace& trace = it->second;

    PredictionRequest request;
    try {
      request.window.start_of_day = parse_time_of_day(start);
    } catch (const PreconditionError& error) {
      fail(error.what());
    }
    request.window.length = hours * kSecondsPerHour;
    request.target_day = trace.day_count();
    const auto parse_state = [&](const std::string& token) {
      if (token == "S1") return State::kS1;
      if (token == "S2") return State::kS2;
      fail("initial state must be S1 or S2, got '" + token + "'");
      return State::kS1;  // unreachable
    };
    std::string token;
    if (fields >> token) {
      if (token == "S1" || token == "S2") {
        request.initial_state = parse_state(token);
      } else {
        const char* const end = token.data() + token.size();
        const auto [parsed_to, error] =
            std::from_chars(token.data(), end, request.target_day);
        if (error != std::errc() || parsed_to != end)
          fail("expected a day number or S1/S2, got '" + token + "'");
        if (fields >> token) request.initial_state = parse_state(token);
      }
    }
    batch.requests.push_back(BatchRequest{.trace = &trace, .request = request});
  }
  return batch;
}

}  // namespace fgcs::tools
