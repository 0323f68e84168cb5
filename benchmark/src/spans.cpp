#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "stats.hpp"

namespace fgcs::benchmark {

void SpanRecorder::record(std::uint64_t id, const char* name,
                          std::uint64_t parent, std::uint64_t request,
                          Clock::time_point start, Clock::time_point end) {
  const Span span{id, parent, request, name, us(start), us(end)};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint64_t SpanRecorder::leaf(const char* name, std::uint64_t parent,
                                 std::uint64_t request,
                                 Clock::time_point start,
                                 Clock::time_point end) {
  const std::uint64_t id = open();
  record(id, name, parent, request, start, end);
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::vector<Span> copy;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    copy = spans_;
  }
  std::sort(copy.begin(), copy.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return copy;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans())
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 span.start_us, span.end_us);
  return std::fclose(file) == 0;
}

std::map<std::string, std::vector<double>> self_times_us(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const Span& span : spans)
    if (span.parent != 0)
      children[span.parent].push_back({span.start_us, span.end_us});
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& span : spans) {
    const auto it = children.find(span.id);
    by_name[span.name].push_back(self_time(
        {span.start_us, span.end_us},
        it == children.end() ? std::vector<Interval>{} : it->second));
  }
  return by_name;
}

}  // namespace fgcs::benchmark
