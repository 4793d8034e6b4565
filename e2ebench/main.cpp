/// \file main.cpp
/// ns_e2ebench: the repository's end-to-end benchmark, DIMACS in and a
/// checked answer out. It drives the public entry points of cnf, nn,
/// solver, policy, core and runtime on one of three workloads, checks every
/// answer, checks that counts repeat exactly, and prints one typed line per
/// metric:
///
///   # meta {...}            build and machine identity
///   # metric {...}          name, unit, value, n, q1, median, q3
///   # passes {...}          timed runs: throughput of each whole pass
///   # determinism {...}     deterministic totals of one pass (compare runs)
///   # check "..."           what the untimed answer checks covered
///   # shares {...}          traced runs: self time per layer / op time
///   # result {...}          correct, attempted, failed
///
/// Usage: ns_e2ebench --workload <select_easy|select_hard|label_batch>
///                    --seed <n> --seconds <s> --trace <0|1>
///                    [--git-sha <sha>] [--trace-out <file>]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
/// every layer call and prints the per-layer metrics and the tracing
/// overhead instead. A timed run runs whole passes over the inputs, as many
/// as fit in --seconds, so every op counts equally. run.py builds this
/// program, runs it in several processes per benchmark run and turns their
/// output into the one-line JSON result the benchmark contract asks for.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

constexpr int kSetups = 5;  // set-ups per process; the last one is used
/// Timed ops a run needs so that ten latency samples lie beyond the p90.
constexpr std::size_t kMinOps = 100;
/// Leading ops of the pass the post-run determinism replay covers when
/// the timed run did not repeat them.
constexpr std::size_t kReplayOps = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a.seconds > 0.0 &&
                     a.seconds <= 3600.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "select_easy") return make_select_easy();
  if (name == "select_hard") return make_select_hard();
  if (name == "label_batch") return make_label_batch();
  return nullptr;
}

/// Linear interpolation between closest ranks; q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints one typed metric line. `n` counts the samples behind the value;
/// quartiles are over `samples` when given (per-op values),
/// otherwise the metric is a single figure.
void print_metric(const std::string& name, const std::string& unit,
                  double value, std::size_t n,
                  const std::vector<double>& samples = {}) {
  const bool q = !samples.empty();
  std::printf(
      "# metric {\"name\": %s, \"unit\": %s, \"value\": %s, \"n\": %zu, "
      "\"q1\": %s, \"median\": %s, \"q3\": %s}\n",
      json_string(name).c_str(), json_string(unit).c_str(), num(value).c_str(),
      n, num(q ? quantile(samples, 0.25) : value).c_str(),
      num(q ? quantile(samples, 0.5) : value).c_str(),
      num(q ? quantile(samples, 0.75) : value).c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_meta(const Args& a, std::size_t threads, std::size_t nproc) {
  const std::string build_type = NS_E2E_BUILD_TYPE;
  const bool release = build_type == "Release" && NS_CHECK == 0;
  std::printf(
      "# meta {\"workload\": %s, \"seed\": %" PRIu64 ", \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"flags\": %s, \"NS_CHECK\": %d, \"NS_SIMD\": %d, \"pool_threads\": "
      "%zu, \"nproc\": %zu, \"cpu_model\": %s, \"release_ns_check_0\": %s}\n",
      json_string(a.workload).c_str(), a.seed, num(a.seconds).c_str(),
      a.trace ? 1 : 0, json_string(a.git_sha).c_str(),
      json_string(NS_E2E_COMPILER).c_str(), json_string(build_type).c_str(),
      json_string(NS_E2E_FLAGS).c_str(), NS_CHECK, NS_SIMD, threads, nproc,
      json_string(cpu_model()).c_str(), release ? "true" : "false");
  if (!release) {
    std::fprintf(stderr,
                 "WARNING: not a Release build at NS_CHECK=0; figures are not "
                 "comparable with the benchmark's baseline\n");
  }
}

/// Per-layer metrics from the traced ops' spans plus the deterministic
/// pass totals. Layers a workload does not call print nothing.
void print_layer_metrics(const Tracer& tracer, std::size_t traced_ops,
                         const std::vector<OpOutcome>& pass,
                         std::size_t threads) {
  const std::map<std::string, LayerTotals> totals =
      summarize(tracer.spans(), traced_ops);
  const double ops = static_cast<double>(std::max<std::size_t>(traced_ops, 1));
  const auto find = [&](const char* name) -> const LayerTotals* {
    const auto it = totals.find(name);
    return it == totals.end() ? nullptr : &it->second;
  };
  const auto counter = [](const LayerTotals* t, const char* name) {
    const auto it = t->counters.find(name);
    return it == t->counters.end() ? 0.0 : it->second;
  };
  // Self time per op, with quartiles over the traced ops.
  const auto ms_metric = [&](const char* metric, const char* span) {
    const LayerTotals* t = find(span);
    if (t == nullptr) return;
    print_metric(metric, "ms", t->self_ms / ops, traced_ops, t->op_self_ms);
  };
  ms_metric("cnf.parse_ms", "cnf.parse");
  ms_metric("cnf.verify_ms", "cnf.verify");
  ms_metric("nn.graph_build_ms", "nn.graph_build");
  ms_metric("nn.record_ms", "nn.record");
  ms_metric("nn.infer_ms", "nn.infer");
  ms_metric("core.label_ms", "core.label_dataset");
  ms_metric("core.classify_batch_ms", "core.classify_batch");
  ms_metric("solver.solve_ms", "solver.solve");
  ms_metric("bench.glue_ms", "op");

  if (const LayerTotals* t = find("cnf.parse")) {
    print_metric("cnf.parse_mb_per_s", "MB/s",
                 counter(t, "bytes") / (t->wall_ms * 1e-3) / 1e6,
                 t->spans);
  }
  if (const LayerTotals* t = find("nn.graph_build")) {
    print_metric("nn.graph_nodes", "count", counter(t, "nodes") / ops,
                 traced_ops);
    print_metric("nn.graph_edges", "count", counter(t, "edges") / ops,
                 traced_ops);
  }
  if (const LayerTotals* t = find("solver.solve")) {
    print_metric("solver.mticks_per_s", "Mticks/s",
                 counter(t, "ticks") / (t->wall_ms * 1e-3) / 1e6, traced_ops);
  }
  double cpu_ms = 0.0, cpu_wall_ms = 0.0;
  for (const auto& [name, t] : totals) {
    cpu_ms += t.cpu_ms;
    cpu_wall_ms += t.cpu_wall_ms;
  }
  print_metric("runtime.threads", "count", static_cast<double>(threads), 1);
  if (cpu_wall_ms > 0.0) {
    print_metric("runtime.cpu_util", "ratio",
                 cpu_ms / (cpu_wall_ms * static_cast<double>(threads)),
                 traced_ops);
  }

  // Deterministic counts, per op of one pass.
  ns::solver::Statistics sum;
  std::uint64_t selections = 0, frequency = 0;
  double straggler = 0.0;
  for (const OpOutcome& o : pass) {
    add_stats(sum, o.stats);
    selections += o.selections;
    frequency += o.frequency;
    straggler += o.straggler_share;
  }
  const double n = static_cast<double>(pass.size());
  const auto count = [&](const char* name, std::uint64_t v) {
    print_metric(name, "count", static_cast<double>(v) / n, pass.size());
  };
  count("solver.propagations", sum.propagations);
  if (sum.ticks > 0) {
    count("solver.ticks", sum.ticks);
    count("solver.conflicts", sum.conflicts);
    count("solver.analyze_ticks", sum.analyze_ticks);
    count("solver.minimize_ticks", sum.minimize_ticks);
    count("solver.decide_ticks", sum.decide_ticks);
    count("solver.reduce_ticks", sum.reduce_ticks);
    count("solver.reductions", sum.reductions);
  }
  if (selections > 0) {
    print_metric("policy.frequency_share", "ratio",
                 static_cast<double>(frequency) /
                     static_cast<double>(selections),
                 selections);
  }
  if (find("core.label_dataset") != nullptr) {
    print_metric("core.straggler_share", "ratio", straggler / n, pass.size());
  }

  // Share of traced op time per layer (self time), for reading where the
  // op's time goes.
  if (const LayerTotals* op = find("op")) {
    std::string shares;
    for (const auto& [name, t] : totals) {
      if (!shares.empty()) shares += ", ";
      shares += json_string(name) + ": " + num(t.self_ms / op->wall_ms);
    }
    std::printf("# shares {%s}\n", shares.c_str());
  }
}

int run(const Args& a) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads =
      std::min(nproc, make_workload(a.workload)->pool_threads(a.trace));
  ns::runtime::set_global_thread_count(threads);
  print_meta(a, threads, nproc);

  std::unique_ptr<Workload> wl;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    wl.reset();
    std::unique_ptr<Workload> fresh = make_workload(a.workload);
    const std::int64_t t0 = now_ns();
    fresh->setup(a.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    wl = std::move(fresh);
  }

  std::vector<std::string> failures;  // benchmark failures, not op errors
  for (const std::string& m : wl->self_test()) {
    failures.push_back("self-test: " + m);
  }

  Tracer tracer;
  tracer.set_enabled(a.trace);
  Tracer untraced;
  const std::size_t pass_ops = wl->pass_ops();
  std::vector<OpOutcome> pass(pass_ops);
  std::vector<bool> have(pass_ops, false), repeated(pass_ops, false);
  std::size_t attempted = 0, failed = 0, traced_ops = 0;
  std::vector<std::string> errors;

  // Runs op k, checks its digest against the pass, returns its latency.
  const auto run_one = [&](std::size_t k, bool traced, double* cpu) {
    Tracer& tr = traced ? tracer : untraced;
    if (traced) tracer.set_op(static_cast<std::uint32_t>(traced_ops++));
    const double c0 = process_cpu_ms();
    const std::int64_t t0 = now_ns();
    OpOutcome o;
    try {
      auto root = tr.span("op");
      o = wl->run_op(k, tr);
    } catch (const std::exception& e) {
      o.errors.push_back("op " + std::to_string(k) + " threw: " + e.what());
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (cpu != nullptr) *cpu = process_cpu_ms() - c0;
    ++attempted;
    if (!o.errors.empty()) {
      ++failed;
      errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    }
    const std::size_t slot = k % pass_ops;
    if (!have[slot]) {
      pass[slot] = std::move(o);
      have[slot] = true;
    } else {
      repeated[slot] = true;
      if (o.digest != pass[slot].digest) {
        failures.push_back("determinism: op " + std::to_string(k) +
                           " differs from its first run");
      }
    }
    return ms;
  };

  // Timed closed loop: whole passes, as many as fit in the requested time
  // (at least one), so every op counts equally. A traced run instead runs
  // each op traced and untraced, in alternating order, for the requested
  // time.
  std::vector<double> lat_ms, cpu_ms, traced_lat_ms;
  std::vector<double> pass_rate;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(a.seconds * 1e9);
  std::size_t k = 0;
  if (!a.trace) {
    std::int64_t last_pass_ns = 0;
    while (pass_rate.empty() || now_ns() + last_pass_ns <= stop) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < pass_ops; ++i, ++k) {
        double cpu = 0.0;
        lat_ms.push_back(run_one(k, false, &cpu));
        cpu_ms.push_back(cpu);
      }
      last_pass_ns = now_ns() - t0;
      pass_rate.push_back(static_cast<double>(pass_ops) /
                          (static_cast<double>(last_pass_ns) * 1e-9));
    }
  } else {
    for (; now_ns() < stop; ++k) {
      const bool traced_first = k % 2 == 1;
      const double first = run_one(k, traced_first, nullptr);
      const double second = run_one(k, !traced_first, nullptr);
      traced_lat_ms.push_back(traced_first ? first : second);
      lat_ms.push_back(traced_first ? second : first);
    }
  }

  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;

  // Untimed from here on: finish the pass, check answers offline, repeat.
  for (; k < pass_ops; ++k) run_one(k, false, nullptr);
  std::vector<std::string> notes;
  for (const std::string& e : wl->verify_offline(notes)) {
    errors.push_back("offline: " + e);
    ++failed;
  }
  for (std::size_t j = 0; j < std::min(pass_ops, kReplayOps); ++j) {
    if (!repeated[j]) run_one(j, false, nullptr);
  }
  for (const std::string& m : wl->check_determinism_extra(pass)) {
    failures.push_back("determinism: " + m);
  }

  std::uint64_t answers = 0, decided = 0, digest = 0;
  for (const OpOutcome& o : pass) {
    answers += o.answers;
    decided += o.decided;
    digest = mix(digest, o.digest);
  }
  const double decided_frac =
      answers == 0 ? 0.0
                   : static_cast<double>(decided) / static_cast<double>(answers);
  std::printf("# determinism {\"pass_ops\": %zu, \"answers\": %" PRIu64
              ", \"decided\": %" PRIu64 ", \"digest\": \"%016" PRIx64 "\"}\n",
              pass_ops, answers, decided, digest);
  for (const std::string& n : notes) {
    std::printf("# check %s\n", json_string(n).c_str());
  }

  const double error_frac =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  if (!a.trace) {
    const double ops = static_cast<double>(lat_ms.size());
    std::string rates;
    for (double v : pass_rate) rates += (rates.empty() ? "" : ", ") + num(v);
    std::printf("# passes {\"passes\": %zu, \"ops_per_s\": [%s]}\n",
                pass_rate.size(), rates.c_str());
    std::vector<double> rate;
    for (double ms : lat_ms) rate.push_back(ms > 0.0 ? 1e3 / ms : 0.0);
    double cpu_total = 0.0;
    for (double c : cpu_ms) cpu_total += c;
    print_metric("throughput_ops_per_s", "ops/s", ops / elapsed_s,
                 lat_ms.size(), rate);
    print_metric("latency_ms.p50", "ms", quantile(lat_ms, 0.5),
                 lat_ms.size(), lat_ms);
    // The p90 needs at least ten samples beyond it.
    if (lat_ms.size() >= kMinOps) {
      print_metric("latency_ms.p90", "ms", quantile(lat_ms, 0.9),
                   lat_ms.size(), lat_ms);
    }
    print_metric("cpu_ms_per_op", "ms", cpu_total / ops, cpu_ms.size(),
                 cpu_ms);
    print_metric("setup_s", "s", quantile(setup_s, 0.5), setup_s.size(),
                 setup_s);
    print_metric("decided_frac", "ratio", decided_frac, answers);
    print_metric("error_frac", "ratio", error_frac, attempted);
    print_metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
  } else {
    print_layer_metrics(tracer, traced_ops, pass, threads);
    double traced_sum = 0.0, untraced_sum = 0.0;
    for (double ms : traced_lat_ms) traced_sum += ms;
    for (double ms : lat_ms) untraced_sum += ms;
    const double traced_rate =
        static_cast<double>(traced_lat_ms.size()) / (traced_sum * 1e-3);
    const double untraced_rate =
        static_cast<double>(lat_ms.size()) / (untraced_sum * 1e-3);
    print_metric("trace.traced_ops_per_s", "ops/s", traced_rate,
                 traced_lat_ms.size());
    print_metric("trace.untraced_ops_per_s", "ops/s", untraced_rate,
                 lat_ms.size());
    print_metric("trace.overhead_frac", "ratio",
                 1.0 - traced_rate / untraced_rate, lat_ms.size());
    if (!a.trace_out.empty() && !tracer.write_jsonl(a.trace_out)) {
      failures.push_back("could not write " + a.trace_out);
    }
  }

  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "error: %s\n", errors[i].c_str());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "failure: %s\n", f.c_str());
  }
  const bool correct = failed == 0 && failures.empty();
  std::printf("# result {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu}\n",
              correct ? "true" : "false", attempted, failed);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, args) || !e2e::make_workload(args.workload)) {
    std::fprintf(stderr,
                 "usage: ns_e2ebench --workload <select_easy|select_hard|"
                 "label_batch> --seed <n> --seconds <s> --trace <0|1> "
                 "[--git-sha <sha>] [--trace-out <file>]\n");
    return 2;
  }
  try {
    return e2e::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ns_e2ebench: %s\n", e.what());
    return 1;
  }
}
