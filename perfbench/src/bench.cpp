#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace perfbench {

std::uint32_t Tracer::begin(const char* name) {
  Span s;
  s.parent = open_.empty() ? 0 : open_.back();
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();
}

double Tracer::wall_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> Tracer::self_s_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] +=
        static_cast<double>(self[i]) * 1e-9;
  }
  return by_layer;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i + 1 << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
}

void advance(sim::Simulator& sim, const net::Transport& transport,
             util::SimTime until, Tracer* tracer, SimProbe* probe) {
  if (tracer == nullptr) {
    sim.run_until(until);
    return;
  }
  Scope span(tracer, "sim.advance");
  while (sim.next_event_time() <= until) {
    const std::uint64_t delivered = transport.stats().messages_delivered;
    const std::int64_t t0 = now_ns();
    sim.run_events(1);
    const std::int64_t dt = now_ns() - t0;
    probe->event_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(dt, UINT32_MAX)));
    if (transport.stats().messages_delivered != delivered) {
      probe->delivery_ns += dt;
    } else {
      probe->other_ns += dt;
    }
  }
  sim.run_until(until);  // no events left at or before `until`: moves the clock
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

constexpr int kMinReps = 3;
constexpr int kTraceMinReps = 4;  // two untraced, two traced
constexpr int kMaxReps = 25;
// No new repetition starts once another one would likely end past this
// many seconds: a run must exit well inside its 180-s limit.
constexpr double kBudgetS = 140.0;

void compare_fingerprints(const std::vector<RepOutcome>& reps,
                          const char* kind, std::vector<std::string>& errors) {
  for (std::size_t i = 1; i < reps.size(); ++i) {
    for (const auto& [key, value] : reps[0].fingerprint) {
      const auto it = reps[i].fingerprint.find(key);
      if (it == reps[i].fingerprint.end() || it->second != value) {
        errors.push_back(std::string(kind) + " repetition " +
                         std::to_string(i) + " disagrees with the first on " +
                         key + ": " + std::to_string(value) + " vs " +
                         (it == reps[i].fingerprint.end()
                              ? std::string("missing")
                              : std::to_string(it->second)));
      }
    }
  }
}

}  // namespace

RunResult repeat(const Options& opts, const RepFn& rep) {
  std::vector<RepOutcome> all, untraced, traced;
  const std::int64_t start = now_ns();
  const int min_reps = opts.trace ? kTraceMinReps : kMinReps;
  for (int i = 0;; ++i) {
    const bool traced_rep = opts.trace && i % 2 == 1;
    Tracer tracer;
    const std::int64_t rep_start = now_ns();
    RepOutcome r = rep(traced_rep ? &tracer : nullptr);
    const double rep_s = static_cast<double>(now_ns() - rep_start) * 1e-9;
    if (traced_rep) {
      r.layer["trace.spans"] = static_cast<double>(tracer.spans().size());
      for (const auto& [layer, s] : tracer.self_s_by_layer()) {
        r.layer["self_s." + layer] = s;
      }
      if (!opts.span_dir.empty()) {
        tracer.write(opts.span_dir + "/" + opts.workload + "-seed" +
                     std::to_string(opts.seed) + "-rep" + std::to_string(i) +
                     ".tsv");
      }
      traced.push_back(r);
    } else {
      untraced.push_back(r);
    }
    all.push_back(std::move(r));
    std::cerr << "rep " << i << (traced_rep ? " traced" : "")
              << ": setup_s=" << all.back().setup_s
              << " run_s=" << all.back().run_s << "\n";
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const int n = i + 1;
    if (n >= min_reps && elapsed >= opts.seconds) break;
    if (n >= kMaxReps) break;
    if (n >= min_reps && elapsed + 1.5 * rep_s > kBudgetS) break;
  }

  RunResult out;
  for (const RepOutcome& r : all) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const std::string& e : r.errors) out.errors.push_back(e);
  }
  // Traced repetitions are compared among themselves: their boundary
  // invariant checks are not read-only (load_index.equivalence purges
  // expired commitments), which shifts runs that gossip domain aggregates.
  compare_fingerprints(untraced, "untraced", out.errors);
  compare_fingerprints(traced, "traced", out.errors);
  out.correct = out.errors.empty();

  const auto med = [](const std::vector<RepOutcome>& reps, auto field) {
    std::vector<double> v;
    for (const RepOutcome& r : reps) v.push_back(field(r));
    return median(std::move(v));
  };
  if (!opts.trace) {
    out.metrics["setup_s"] = med(all, [](const RepOutcome& r) { return r.setup_s; });
    out.metrics["run_s"] = med(all, [](const RepOutcome& r) { return r.run_s; });
    out.metrics["peak_rss_mib"] = peak_rss_mib();
    out.metrics["ops_on_time"] = all.front().on_time;
    return out;
  }
  for (const std::string& name : per_layer_names()) {
    out.metrics[name] = med(traced, [&](const RepOutcome& r) {
      const auto it = r.layer.find(name);
      return it == r.layer.end() ? 0.0 : it->second;
    });
  }
  out.metrics["trace.overhead_s"] =
      med(traced, [](const RepOutcome& r) { return r.run_s; }) -
      med(untraced, [](const RepOutcome& r) { return r.run_s; });
  return out;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "sim.events", "sim.events_scheduled", "sim.queue.compactions",
        "sim.event_wall_us.p50", "sim.event_wall_us.p99",
        "sim.delivery_wall_s", "sim.other_wall_s",
        "net.messages_delivered", "net.messages_undeliverable",
        "net.control_bytes", "net.control_bytes_per_task"};
    for (const char* type :
         {"core.backup_sync", "core.backup_sync_ack", "core.graph_compose",
          "core.hop_cancel", "core.hop_done", "core.hop_failed",
          "core.peer_announce", "core.profiler_report", "core.report_ack",
          "core.source_start", "core.stream_data", "core.task_accept",
          "core.task_completed", "core.task_failed", "core.task_qos_update",
          "core.task_query", "core.task_reject", "gossip.summaries",
          "overlay.join_accept", "overlay.join_promote",
          "overlay.join_redirect", "overlay.join_request", "overlay.leave",
          "overlay.rm_heartbeat", "overlay.rm_intro", "overlay.rm_takeover"}) {
      n.push_back(std::string("net.msgs.") + type);
      n.push_back(std::string("net.bytes.") + type);
    }
    for (const char* name : {
             "gossip.rounds", "gossip.pushes", "gossip.anti_entropy_pushes",
             "core.registry.random_alive_peer.calls",
             "core.registry.random_alive_peer.wall_s",
             "core.registry.materialize.wall_s", "core.registry.demote.wall_s",
             "core.registry.add_lazy.wall_s", "core.registry.bytes_per_peer",
             "core.registry.materialized_peak", "core.bootstrap.wall_s",
             "core.submit.wall_s", "core.rm.queries", "core.rm.admitted",
             "core.rm.redirects_out", "core.rm.rejected",
             "core.rm.member_failures", "core.rm.recoveries_attempted",
             "core.rm.recoveries_succeeded", "tasks.latency_p50_sim_s",
             "tasks.latency_p99_sim_s", "tasks.completed_late", "tasks.orphaned",
             "tasks.rejected.allocation-failed",
             "tasks.rejected.domain-overloaded",
             "tasks.rejected.origin-unavailable", "tasks.rejected.rpc-timeout",
             "tasks.rejected.other",
             "tasks.failed.unrecoverable-member-failure", "tasks.failed.other",
             "graph.vertices_popped", "graph.path_cache.hits",
             "graph.path_cache.misses", "stream.chunks_generated",
             "stream.late", "stream.dropped", "stream.chain_rebuilds",
             "stream.placement_failures", "stream.uplink_saturation_max",
             "stream.start.wall_s", "check.scenarios", "check.base.wall_s",
             "check.oracles.wall_s", "check.scenario_wall_s.p50",
             "check.scenario_wall_s.p99", "check.trace_events",
             "check.net_sent", "trace.overhead_s", "trace.spans",
             "self_s.bench", "self_s.sim", "self_s.core", "self_s.workload",
             "self_s.stream", "self_s.check"}) {
      n.push_back(name);
    }
    return n;
  }();
  return names;
}

}  // namespace perfbench
