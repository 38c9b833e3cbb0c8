// Shared machinery of the end-to-end benchmark: options, repetition loop,
// in-memory span tracer, simulator stepping for the traced run, and the
// result every workload hands back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace perfbench {

namespace sim = p2prm::sim;
namespace net = p2prm::net;
namespace util = p2prm::util;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;  // where the traced run writes its spans
  // stream-flash's chain placement policy; the benchmark runs the default,
  // other policies give the README's comparison figures.
  std::string allocator = "paper-bfs";
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans around every call the benchmark makes into a layer. A span's layer
// is its name up to the first '.'; the benchmark's own code is "bench".
class Tracer {
 public:
  struct Span {
    std::uint32_t parent = 0;  // 0: root (span ids start at 1)
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Total duration of spans named `name`, in seconds.
  [[nodiscard]] double wall_s(const std::string& name) const;
  // Self time (duration minus the part covered by child spans) summed per
  // layer, in seconds.
  [[nodiscard]] std::map<std::string, double> self_s_by_layer() const;
  // Tab-separated dump: id, parent, name, start_ns, end_ns.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// RAII span; does nothing without a tracer, so untraced runs pay one branch.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// Per-event wall times collected while the traced run steps the simulator
// one event at a time. An event "delivers" when the transport's
// messages_delivered counter moved across it.
struct SimProbe {
  std::vector<std::uint32_t> event_ns;
  std::int64_t delivery_ns = 0;
  std::int64_t other_ns = 0;
};

// Runs the simulator to `until`. Untraced: one run_until call. Traced:
// steps with run_events(1), timing and classifying every event, then
// run_until(until) to move the clock exactly as the untraced path does.
void advance(sim::Simulator& sim, const net::Transport& transport,
             util::SimTime until, Tracer* tracer, SimProbe* probe);

using Metrics = std::map<std::string, double>;

// What one repetition of a workload produced. Wall times feed medians;
// `fingerprint` holds every deterministic output and must be identical
// across repetitions of one run.
struct RepOutcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double on_time = 0.0;
  std::vector<std::string> errors;  // failed correctness checks
  std::map<std::string, std::uint64_t> fingerprint;
  Metrics layer;  // per-layer metrics (traced repetitions)
};

using RepFn = std::function<RepOutcome(Tracer* tracer)>;

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;
};

// Repeats `rep` on fresh state until `opts.seconds` have passed (at least
// kMinReps times) and folds the repetitions into one result: medians of the
// wall times, exact agreement of the fingerprints. In trace mode untraced
// and traced repetitions alternate; the per-layer metrics are the medians
// over the traced ones, plus the tracing overhead.
RunResult repeat(const Options& opts, const RepFn& rep);

[[nodiscard]] double median(std::vector<double> v);
// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mib();

// Per-layer metrics, in the order BENCHMARK.json lists them. Every one is
// printed in trace mode; a layer a workload never calls reads 0.
const std::vector<std::string>& per_layer_names();

RunResult run_lazy_million(const Options& opts);
RunResult run_full_2k(const Options& opts);
RunResult run_stream_flash(const Options& opts);
RunResult run_fuzz_sweep(const Options& opts);

}  // namespace perfbench
