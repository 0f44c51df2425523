#ifndef PARTIX_PERFBENCH_SPAN_LOG_H_
#define PARTIX_PERFBENCH_SPAN_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval recorded around a call into a PartiX layer.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the same log, or -1 for a root.
  int32_t parent = -1;
  /// Spans of one request share this id.
  uint64_t request = 0;
};

/// A number attached to a request. `program_reported` marks figures the
/// program measured about itself (DistributedResult fields) as opposed to
/// the benchmark's own measurements.
struct Count {
  std::string name;
  double value = 0.0;
  uint64_t request = 0;
  bool program_reported = false;
};

/// Self and total time of every span sharing one name.
struct SpanTotals {
  uint64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// In-memory spans and counts of one thread. Not thread-safe: each
/// recording thread owns one log; logs are merged after the threads join.
class SpanLog {
 public:
  /// Opens a span under `parent` (-1 = root) and returns its index.
  int32_t Begin(std::string name, uint64_t request, int32_t parent = -1);
  /// Closes span `index`.
  void End(int32_t index);
  void AddCount(std::string name, double value, uint64_t request,
                bool program_reported);

  /// Moves every span and count of `other` into this log (parent indexes
  /// are rebased).
  void Absorb(SpanLog&& other);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

  /// Per-name totals. A span's self time is its duration minus the part
  /// of it its child spans cover (children of one span are sequential).
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes the log as JSON lines (one span or count per line). Returns
  /// false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t request,
             int32_t parent = -1)
      : log_(log), index_(log->Begin(std::move(name), request, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Monotonic time in nanoseconds (steady clock).
int64_t NowNanos();

}  // namespace perfbench

#endif  // PARTIX_PERFBENCH_SPAN_LOG_H_
