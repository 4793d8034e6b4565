/// \file bench_inference_latency.cpp
/// Single-instance inference latency of the program/executor split, and
/// the allocation-free steady-state contract behind it.
///
/// For every Table-2 classifier the bench records one instance's forward
/// program into an `InferenceSession`, warms it up, then (a) counts global
/// operator-new calls across a window of repeated predictions — the
/// liveness-planned workspace must make that count exactly zero with a
/// single-thread kernel pool — and (b) reports p50/p99 per-call latency.
/// Batch inference is timed as well: `*_classify16_p50` is the per-call
/// latency of `core::classify_batch` over 16 instances, which records and
/// executes one session per graph, so it counts record *and* execute cost.
/// Results land in BENCH_inference_latency.json; `steady_allocs` entries
/// carry the allocation count in the wall_ms field (0 expected). The
/// process exits non-zero if any model allocates in steady state, so the
/// contract is checkable in CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/neuroselect.hpp"
#include "gen/generators.hpp"
#include "nn/models.hpp"
#include "runtime/thread_pool.hpp"

// --- counting allocator (whole-TU override) -------------------------------

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The replaced operator new above is malloc-backed, so free() IS the
// matching deallocation; GCC pairs the replaced `::operator new` symbol
// with free() and reports a false mismatch when vector destructors inline.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kWarmup = 8;
constexpr std::size_t kAllocWindow = 64;
constexpr std::size_t kLatencyReps = 200;
constexpr std::size_t kBatchLatencyReps = 50;

double percentile(std::vector<double> sorted_ms, double p) {
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[idx];
}

}  // namespace

int main() {
  // Single-thread pool: the zero-allocation contract holds for the inline
  // kernel path (multi-thread fan-out allocates inside pool dispatch).
  ns::runtime::set_global_thread_count(1);

  const ns::nn::GraphBatch g =
      ns::nn::GraphBatch::build(ns::gen::random_ksat(60, 252, 3, 2024));

  // 16-instance batch (same split as bench_parallel_scaling's
  // classify_batch workload) for the batch latency row.
  const std::vector<ns::gen::NamedInstance> split =
      ns::gen::generate_split(2022, 16, 5);
  std::vector<ns::nn::GraphBatch> batch_graphs;
  batch_graphs.reserve(split.size());
  for (const ns::gen::NamedInstance& inst : split) {
    batch_graphs.push_back(ns::nn::GraphBatch::build(inst.formula));
  }
  std::vector<const ns::nn::GraphBatch*> batch_ptrs;
  for (const ns::nn::GraphBatch& bg : batch_graphs) batch_ptrs.push_back(&bg);

  struct Row {
    const char* name;
    ns::nn::ClassifierKind kind;
  };
  const Row rows[] = {
      {"NeuroSat", ns::nn::ClassifierKind::kNeuroSat},
      {"Gin", ns::nn::ClassifierKind::kGin},
      {"NeuroSelectNoAttention",
       ns::nn::ClassifierKind::kNeuroSelectNoAttention},
      {"NeuroSelect", ns::nn::ClassifierKind::kNeuroSelect},
  };

  ns::bench::BenchJson json("inference_latency");
  bool all_zero = true;
  float sink = 0.0f;

  for (const Row& row : rows) {
    auto model = ns::nn::make_classifier(row.kind, 7);
    ns::nn::InferenceSession session(*model, g);

    for (std::size_t i = 0; i < kWarmup; ++i) {
      sink += session.predict_probability();
    }

    // (a) steady-state allocation count over a prediction window.
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kAllocWindow; ++i) {
      sink += session.predict_probability();
    }
    const std::size_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    all_zero = all_zero && allocs == 0;

    // (b) per-call latency distribution.
    std::vector<double> ms;
    ms.reserve(kLatencyReps);
    for (std::size_t i = 0; i < kLatencyReps; ++i) {
      const auto t0 = Clock::now();
      sink += session.predict_probability();
      const auto t1 = Clock::now();
      ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const double p50 = percentile(ms, 0.50);
    const double p99 = percentile(ms, 0.99);

    json.record(std::string(row.name) + "_p50", 1, p50);
    json.record(std::string(row.name) + "_p99", 1, p99);
    json.record(std::string(row.name) + "_steady_allocs", 1,
                static_cast<double>(allocs));
    std::printf(
        "%-24s p50 %8.4f ms  p99 %8.4f ms  steady-state allocs %zu\n",
        row.name, p50, p99, allocs);

    // Batch inference: every call records and executes one session per
    // graph, so this row prices recording as well as execution.
    std::vector<double> bms;
    bms.reserve(kBatchLatencyReps);
    for (std::size_t i = 0; i < kBatchLatencyReps; ++i) {
      const auto t0 = Clock::now();
      sink += ns::core::classify_batch(*model, batch_ptrs)[0];
      const auto t1 = Clock::now();
      bms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const double bp50 = percentile(bms, 0.50);

    json.record(std::string(row.name) + "_classify16_p50", 1, bp50);
    std::printf("%-24s classify16 p50 %8.4f ms\n", row.name, bp50);
  }

  if (!json.write()) {
    std::fprintf(stderr, "failed to write BENCH_inference_latency.json\n");
    return 2;
  }
  std::printf("(checksum %g)\n", static_cast<double>(sink));
  if (!all_zero) {
    std::fprintf(stderr,
                 "FAIL: steady-state predictions allocated on the heap\n");
    return 1;
  }
  std::printf("PASS: zero steady-state heap allocations for all models\n");
  return 0;
}
