#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run. The benchmark opens a span
/// around each of its own calls into a layer's public functions (tracing
/// inside the program is not part of this benchmark). A span records its
/// name, start, end, parent span and op id, plus the counters the layer
/// returned at that boundary. Spans stay in memory until the run ends.

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads) in milliseconds.
inline double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

struct Counter {
  const char* name = nullptr;
  double value = 0.0;
};

struct Span {
  static constexpr std::size_t kMaxCounters = 10;
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list; -1 = op root
  std::uint32_t op = 0;
  double cpu_ms = -1.0;  ///< process CPU time inside the span; -1 = not taken
  std::array<Counter, kMaxCounters> counters{};
  std::size_t num_counters = 0;
};

class Tracer {
 public:
  /// RAII span: opened by Tracer::span, closed at scope exit. A scope from
  /// a disabled tracer records nothing and costs one branch per call.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, bool measure_cpu)
        : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      index_ = static_cast<std::int32_t>(tracer_->spans_.size());
      Span s;
      s.name = name;
      s.parent = tracer_->open_;
      s.op = tracer_->op_;
      tracer_->spans_.push_back(s);
      tracer_->open_ = index_;
      if (measure_cpu) cpu0_ = process_cpu_ms();
      tracer_->spans_[index_].start_ns = now_ns();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      Span& s = tracer_->spans_[index_];
      s.end_ns = now_ns();
      if (cpu0_ >= 0.0) s.cpu_ms = process_cpu_ms() - cpu0_;
      tracer_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attaches a counter returned by the layer call this span wraps.
    void count(const char* name, double value) {
      if (tracer_ == nullptr) return;
      Span& s = tracer_->spans_[index_];
      if (s.num_counters < Span::kMaxCounters) {
        s.counters[s.num_counters++] = Counter{name, value};
      }
    }

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
    double cpu0_ = -1.0;
  };

  void set_enabled(bool on) {
    enabled_ = on;
    if (on) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  void set_op(std::uint32_t op) { op_ = op; }

  Scope span(const char* name, bool measure_cpu = false) {
    return Scope(enabled_ ? this : nullptr, name, measure_cpu);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"op\":%u,\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld",
                   i, s.name, s.op, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      if (s.cpu_ms >= 0.0) std::fprintf(f, ",\"cpu_ms\":%.6f", s.cpu_ms);
      for (std::size_t c = 0; c < s.num_counters; ++c) {
        std::fprintf(f, ",\"%s\":%.17g", s.counters[c].name,
                     s.counters[c].value);
      }
      std::fprintf(f, "}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t op_ = 0;
  bool enabled_ = false;
};

/// Per-name totals over a span list: self time (duration minus the part
/// covered by child spans) in all and per op, span count, CPU time and
/// counter sums.
struct LayerTotals {
  double self_ms = 0.0;
  std::vector<double> op_self_ms;  ///< indexed by Span::op
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double cpu_wall_ms = 0.0;  ///< wall time of the spans that measured CPU
  std::size_t spans = 0;
  std::map<std::string, double> counters;
};

/// Totals per span name over spans whose op ids are below `ops`.
inline std::map<std::string, LayerTotals> summarize(
    const std::vector<Span>& spans, std::size_t ops) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTotals& t = out[s.name];
    const double wall = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    t.wall_ms += wall;
    t.self_ms += wall - child_ms[i];
    t.op_self_ms.resize(ops, 0.0);
    if (s.op < ops) t.op_self_ms[s.op] += wall - child_ms[i];
    t.spans += 1;
    if (s.cpu_ms >= 0.0) {
      t.cpu_ms += s.cpu_ms;
      t.cpu_wall_ms += wall;
    }
    for (std::size_t c = 0; c < s.num_counters; ++c) {
      t.counters[s.counters[c].name] += s.counters[c].value;
    }
  }
  return out;
}

}  // namespace e2e
