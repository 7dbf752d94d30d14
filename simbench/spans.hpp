#pragma once
// Host-time spans recorded by the benchmark around its calls into the
// simulator's layers. Spans stay in memory until the run ends; the report
// derives self times from them. A disabled recorder records nothing and
// costs one branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace simbench {

struct Span {
  std::string name;
  double start_s = 0.0;  // host seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;  // index of the enclosing span, -1 at the top
  int trial = -1;   // trial (repetition or sweep trial) the span belongs to
  int worker = -1;  // sweep worker that ran it, -1 on the main thread
  [[nodiscard]] double duration() const noexcept { return end_s - start_s; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  /// Open a span; returns its id, or -1 when disabled. Thread-safe.
  int begin(std::string name, int parent = -1, int trial = -1,
            int worker = -1);
  /// Close span `id` (no-op for -1). Thread-safe.
  void end(int id);
  /// Add an already-measured span (start/end in recorder seconds).
  int add(Span span);
  [[nodiscard]] double now_s() const;
  /// Snapshot of every recorded span, in the order they were opened.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int parent = -1,
             int trial = -1, int worker = -1)
      : rec_(&rec), id_(rec.begin(std::move(name), parent, trial, worker)) {}
  ~ScopedSpan() { rec_->end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children that run in
/// parallel are not double-counted).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Total self time per span name.
[[nodiscard]] std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans);

}  // namespace simbench
