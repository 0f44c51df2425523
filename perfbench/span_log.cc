#include "span_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Begin(std::string name, uint64_t request, int32_t parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNanos();
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t index) { spans_[index].end_ns = NowNanos(); }

void SpanLog::AddCount(std::string name, double value, uint64_t request,
                       bool program_reported) {
  counts_.push_back(Count{std::move(name), value, request, program_reported});
}

void SpanLog::Absorb(SpanLog&& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span& span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
  for (Count& count : other.counts_) counts_.push_back(std::move(count));
  other.spans_.clear();
  other.counts_.clear();
}

std::map<std::string, SpanTotals> SpanLog::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    SpanTotals& t = totals[spans_[i].name];
    ++t.spans;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
  }
  return totals;
}

namespace {

/// Span and metric names are benchmark-chosen identifiers; escape the two
/// characters JSON forbids unescaped anyway.
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"type\":\"span\",\"id\":%zu,\"name\":%s,\"request\":%llu,"
                 "\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, Quoted(s.name).c_str(),
                 static_cast<unsigned long long>(s.request), s.parent,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - origin) / 1e3);
  }
  for (const Count& c : counts_) {
    std::fprintf(out,
                 "{\"type\":\"count\",\"name\":%s,\"request\":%llu,"
                 "\"value\":%.17g,\"source\":\"%s\"}\n",
                 Quoted(c.name).c_str(),
                 static_cast<unsigned long long>(c.request), c.value,
                 c.program_reported ? "program-reported" : "benchmark");
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
