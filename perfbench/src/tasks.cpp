// Task workloads on a full core::System: full-2k (eager peers bootstrapped
// through the join protocol) and lazy-million (a million registry rows with
// waves of materialized peers). Both drive tasks from the benchmark's own
// arrival loop, so every origin pick and submission is a call it can time.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "check/invariants.hpp"
#include "exp_common.hpp"

namespace perfbench {
namespace {

using namespace p2prm;

// Media clips of 1-4 s keep every request's deadline (at most 6x the
// clip's two-hop transfer bound) near a minute, so a drain stays short.
constexpr double kMinMediaS = 1.0;
constexpr double kMaxMediaS = 4.0;
constexpr double kDrainSlackS = 5.0;

struct TaskParams {
  core::SystemConfig system{};
  std::size_t core_peers = 0;     // eager peers joined through the protocol
  std::size_t lazy_rows = 0;      // bare registry rows added after them
  std::size_t waves = 1;          // lazy-million: materialization waves
  std::size_t wave_peers = 0;     // lazy rows materialized per wave
  std::size_t tasks_per_wave = 0;
  util::SimDuration arrival_window = 0;
};

// A Poisson arrival process conditioned on its count: `n` sorted uniform
// times in [start, start + window). The count is fixed by the workload, so
// every seed submits the same number of tasks.
std::vector<util::SimTime> arrival_times(util::Rng& rng, std::size_t n,
                                         util::SimTime start,
                                         util::SimDuration window) {
  std::vector<util::SimTime> t(n);
  for (auto& x : t) {
    x = start + static_cast<util::SimDuration>(
                    rng.uniform01() * static_cast<double>(window));
  }
  std::sort(t.begin(), t.end());
  return t;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

class TaskRun {
 public:
  TaskRun(const TaskParams& params, std::uint64_t seed, Tracer* tracer)
      : params_(params), seed_(seed), tracer_(tracer) {}

  RepOutcome run() {
    RepOutcome out;
    const std::int64_t t0 = now_ns();
    setup();
    const std::int64_t t1 = now_ns();
    workload();
    const std::int64_t t2 = now_ns();
    out.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    out.run_s = static_cast<double>(t2 - t1) * 1e-9;
    finish(out);
    return out;
  }

 private:
  core::System& sys() { return world_->system(); }

  void step_to(util::SimTime t) {
    if (tracer_ != nullptr) maybe_check_boundary(t);
    advance(sys().simulator(), sys().transport(), t, tracer_, &probe_);
  }

  // Traced run: invariants at every 2-s boundary of simulated time.
  void maybe_check_boundary(util::SimTime t) {
    while (next_boundary_ <= t) {
      advance(sys().simulator(), sys().transport(), next_boundary_, tracer_,
              &probe_);
      Scope span(tracer_, "check.invariants");
      checker_.check(sys(), check::CheckPhase::Boundary);
      next_boundary_ += util::seconds(2);
    }
  }

  void setup() {
    Scope span(tracer_, "bench.setup");
    bench::WorldConfig config;
    config.system = params_.system;
    config.system.seed = seed_;
    config.peers = params_.core_peers;
    config.pop.min_duration_s = kMinMediaS;
    config.pop.max_duration_s = kMaxMediaS;
    world_ = std::make_unique<bench::World>(config);
    checker_ = check::InvariantChecker::with_defaults();
    {
      // World::bootstrap (workload::bootstrap_network), unrolled so the
      // traced run can step the simulator between joins.
      Scope boot(tracer_, "core.bootstrap");
      for (std::size_t i = 0; i < params_.core_peers; ++i) {
        auto [spec, inv] = world_->factory()();
        sys().add_peer(spec, std::move(inv));
        step_to(sys().simulator().now() + util::milliseconds(20));
      }
      step_to(sys().simulator().now() + util::seconds(5));
    }
    if (params_.lazy_rows > 0) {
      // Edge population as in bench_e2's scale mode: specs from the same
      // heterogeneity model, no inventory (consumers).
      Scope lazy(tracer_, "core.registry.add_lazy");
      sys().reserve_peers(params_.core_peers + params_.lazy_rows);
      util::Rng lazy_rng(seed_ * 7919 + 101);
      lazy_.reserve(params_.lazy_rows);
      const workload::HeterogeneityConfig het{};
      for (std::size_t i = 0; i < params_.lazy_rows; ++i) {
        const auto spec =
            workload::draw_peer_spec(het, lazy_rng, sys().simulator().now());
        lazy_.push_back(sys().add_lazy_peer(spec, {}));
      }
    }
    materialized_peak_ = sys().peer_registry().materialized();
  }

  void workload() {
    Scope span(tracer_, "bench.workload");
    util::Rng arrival_rng(seed_ * 0x9e3779b97f4a7c15ULL + 0xA221);
    util::Rng request_rng(seed_ * 0x9e3779b97f4a7c15ULL + 0x4E57);
    for (std::size_t w = 0; w < params_.waves; ++w) {
      if (params_.wave_peers > 0) materialize_wave(w);
      const auto arrivals = arrival_times(
          arrival_rng, params_.tasks_per_wave, sys().simulator().now(),
          params_.arrival_window);
      scheduled_ += arrivals.size();
      for (const util::SimTime t : arrivals) {
        step_to(t);
        submit_one(request_rng);
      }
      drain(arrivals.empty() ? sys().simulator().now() : arrivals.back());
      // The wave's own peers go back to rows. (demote_idle_peers would
      // also demote idle core peers, the only hosts of the objects.)
      for (const util::PeerId id : wave_) {
        Scope demote(tracer_, "core.registry.demote");
        if (sys().demote_peer(id)) ++demoted_;
      }
      wave_.clear();
    }
  }

  // Stride-samples the wave across the whole lazy range, so row locality
  // does not flatter the registry walks, then lets the joins settle.
  void materialize_wave(std::size_t w) {
    const std::size_t stride =
        std::max<std::size_t>(1, lazy_.size() / params_.wave_peers);
    std::size_t touched = 0;
    for (std::size_t i = w; i < lazy_.size() && touched < params_.wave_peers;
         i += stride) {
      Scope span(tracer_, "core.registry.materialize");
      if (sys().materialize_peer(lazy_[i])) {
        wave_.push_back(lazy_[i]);
        ++touched;
      }
    }
    materialized_ += touched;
    step_to(sys().simulator().now() + util::seconds(3));
    materialized_peak_ =
        std::max(materialized_peak_, sys().peer_registry().materialized());
  }

  void submit_one(util::Rng& request_rng) {
    std::optional<util::PeerId> origin;
    {
      Scope span(tracer_, "core.registry.random_alive_peer");
      origin = sys().random_alive_peer(util::PeerId::invalid());
    }
    ++origin_picks_;
    if (!origin) {
      errors_.push_back("no alive, joined peer to submit from");
      return;
    }
    core::QoSRequirements q;
    {
      Scope span(tracer_, "workload.draw");
      q = world_->synthesizer().draw(request_rng);
    }
    Scope span(tracer_, "core.submit");
    tasks_.push_back(sys().submit_task(*origin, std::move(q)));
  }

  // Runs until no task can be tracked anywhere: past the latest deadline a
  // request can carry (counted from the last arrival) by the RMs' task
  // garbage-collection grace, plus slack for one adaptation round. Tasks
  // still pending at the origin then are orphaned, as check::run_scenario
  // does at the end of its drain. The horizon depends only on the arrival
  // times, so the drain does not stretch on seeds where some task never
  // ends.
  void drain(util::SimTime last_arrival) {
    Scope span(tracer_, "bench.drain");
    const workload::RequestConfig req{};
    const util::SimTime horizon =
        last_arrival +
        util::from_seconds(req.max_deadline_tightness *
                               (kMaxMediaS * req.assumed_hops +
                                req.transfer_allowance_s) +
                           kDrainSlackS) +
        params_.system.task_gc_grace;
    step_to(horizon);
    sys().ledger().orphan_pending(sys().simulator().now());
  }

  void finish(RepOutcome& out) {
    core::System& s = sys();
    const core::TaskLedger& ledger = s.ledger();
    out.attempted = tasks_.size();
    for (const std::string& e : errors_) out.errors.push_back(e);
    if (ledger.submitted() != scheduled_ || tasks_.size() != scheduled_) {
      out.errors.push_back("submitted " + std::to_string(ledger.submitted()) +
                           " tasks, scheduled " + std::to_string(scheduled_));
    }

    // Outcomes: exactly one terminal state per task.
    std::uint64_t on_time = 0, late = 0, orphaned = 0, digest = 0;
    std::map<std::string, std::uint64_t> rejected, failed;
    std::vector<double> latency;
    for (const util::TaskId id : tasks_) {
      const core::TaskRecord* r = ledger.record(id);
      if (r == nullptr) {
        out.errors.push_back("task " + util::to_string(id) + " not in ledger");
        continue;
      }
      digest = mix(mix(digest, static_cast<std::uint64_t>(r->status)),
                   static_cast<std::uint64_t>(r->finished));
      switch (r->status) {
        case core::TaskStatus::Completed:
          latency.push_back(util::to_seconds(r->response_time()));
          if (r->missed_deadline) {
            ++late;
          } else if (r->response_time() <= 0 ||
                     r->response_time() > r->deadline) {
            out.errors.push_back("task " + util::to_string(id) +
                                 " on time with response " +
                                 std::to_string(r->response_time()));
          } else {
            ++on_time;
          }
          break;
        case core::TaskStatus::Rejected: ++rejected[r->reason]; break;
        case core::TaskStatus::Failed: ++failed[r->reason]; break;
        case core::TaskStatus::Orphaned: ++orphaned; break;
        case core::TaskStatus::Pending:
          out.errors.push_back("task " + util::to_string(id) + " left pending");
      }
    }
    if (ledger.pending() != 0) {
      out.errors.push_back(std::to_string(ledger.pending()) +
                           " tasks still pending after the drain");
    }
    out.on_time = static_cast<double>(on_time);

    checker_.check(s, check::CheckPhase::Quiescent);
    for (const check::Violation& v : checker_.violations()) {
      out.errors.push_back("invariant " + v.invariant + ": " + v.message);
    }

    // Uplink: no peer sent more than its drawn rate allows over the run.
    const double elapsed_s = util::to_seconds(s.simulator().now());
    for (const util::PeerId id : s.materialized_peer_ids()) {
      const core::PeerNode* node = s.peer(id);
      const double cap = node->spec().link.uplink_bytes_per_s * elapsed_s;
      if (static_cast<double>(node->stats().bytes_sent) > cap) {
        out.errors.push_back("peer " + util::to_string(id) + " sent " +
                             std::to_string(node->stats().bytes_sent) +
                             " B over a " + std::to_string(cap) + " B uplink");
      }
    }

    const core::PeerRegistry& reg = s.peer_registry();
    const double bytes_per_peer =
        static_cast<double>(reg.footprint_bytes()) /
        static_cast<double>(std::max<std::size_t>(1, reg.size()));
    if (params_.lazy_rows > 0) {
      const std::size_t rows = params_.core_peers + params_.lazy_rows;
      if (reg.size() != rows) {
        out.errors.push_back("registry holds " + std::to_string(reg.size()) +
                             " rows, expected " + std::to_string(rows));
      }
      if (bytes_per_peer > 128.0) {
        out.errors.push_back("registry at " + std::to_string(bytes_per_peer) +
                             " B/peer, budget 128");
      }
    }

    const net::NetworkStats& net = s.transport().stats();
    const auto split = metrics::split_traffic(net);
    const sim::Simulator& sim = s.simulator();
    out.fingerprint = {{"tasks.submitted", tasks_.size()},
                       {"tasks.on_time", on_time},
                       {"tasks.late", late},
                       {"tasks.orphaned", orphaned},
                       {"tasks.digest", digest},
                       {"sim.events", sim.events_executed()},
                       {"sim.events_scheduled", sim.events_scheduled()},
                       {"sim.now", static_cast<std::uint64_t>(sim.now())},
                       {"net.messages_delivered", net.messages_delivered},
                       {"net.control_bytes", split.control_bytes},
                       {"registry.materialized", materialized_},
                       {"registry.demoted", demoted_}};

    Metrics& m = out.layer;
    m["sim.events"] = static_cast<double>(sim.events_executed());
    m["sim.events_scheduled"] = static_cast<double>(sim.events_scheduled());
    m["sim.queue.compactions"] =
        static_cast<double>(sim.queue().stats().compactions);
    std::vector<double> ev_us;
    ev_us.reserve(probe_.event_ns.size());
    for (const std::uint32_t ns : probe_.event_ns) ev_us.push_back(ns * 1e-3);
    m["sim.event_wall_us.p50"] = quantile(ev_us, 0.50);
    m["sim.event_wall_us.p99"] = quantile(ev_us, 0.99);
    m["sim.delivery_wall_s"] = static_cast<double>(probe_.delivery_ns) * 1e-9;
    m["sim.other_wall_s"] = static_cast<double>(probe_.other_ns) * 1e-9;
    m["net.messages_delivered"] = static_cast<double>(net.messages_delivered);
    m["net.messages_undeliverable"] =
        static_cast<double>(net.messages_undeliverable);
    m["net.control_bytes"] = static_cast<double>(split.control_bytes);
    m["net.control_bytes_per_task"] =
        static_cast<double>(split.control_bytes) /
        static_cast<double>(std::max<std::size_t>(1, tasks_.size()));
    for (const auto& [type, count] : net.per_type_count) {
      m["net.msgs." + type] = static_cast<double>(count);
      m["net.bytes." + type] =
          static_cast<double>(net.per_type_bytes.at(type));
    }
    for (const util::PeerId id : s.resource_manager_ids()) {
      const core::ResourceManager* rm = s.peer(id)->resource_manager();
      const auto& g = rm->gossip().stats();
      m["gossip.rounds"] += static_cast<double>(g.rounds);
      m["gossip.pushes"] += static_cast<double>(g.pushes);
      m["gossip.anti_entropy_pushes"] +=
          static_cast<double>(g.anti_entropy_pushes);
      const core::RmStats& r = rm->stats();
      m["core.rm.queries"] += static_cast<double>(r.queries_received);
      m["core.rm.admitted"] += static_cast<double>(r.tasks_admitted);
      m["core.rm.redirects_out"] += static_cast<double>(r.redirects_out);
      m["core.rm.rejected"] += static_cast<double>(r.tasks_rejected);
      m["core.rm.member_failures"] += static_cast<double>(r.member_failures);
      m["core.rm.recoveries_attempted"] +=
          static_cast<double>(r.recoveries_attempted);
      m["core.rm.recoveries_succeeded"] +=
          static_cast<double>(r.recoveries_succeeded);
      m["graph.vertices_popped"] +=
          static_cast<double>(r.search_vertices_popped);
      m["graph.path_cache.hits"] += static_cast<double>(r.path_cache_hits);
      m["graph.path_cache.misses"] += static_cast<double>(r.path_cache_misses);
    }
    m["core.registry.random_alive_peer.calls"] =
        static_cast<double>(origin_picks_);
    m["core.registry.bytes_per_peer"] = bytes_per_peer;
    m["core.registry.materialized_peak"] =
        static_cast<double>(materialized_peak_);
    m["tasks.latency_p50_sim_s"] = quantile(latency, 0.50);
    m["tasks.latency_p99_sim_s"] = quantile(latency, 0.99);
    m["tasks.completed_late"] = static_cast<double>(late);
    m["tasks.orphaned"] = static_cast<double>(orphaned);
    const auto tally = [&m](const std::string& prefix,
                            const std::map<std::string, std::uint64_t>& by,
                            std::initializer_list<const char*> named) {
      for (const auto& [reason, n] : by) {
        const bool listed =
            std::find_if(named.begin(), named.end(), [&](const char* r) {
              return reason == r;
            }) != named.end();
        m[prefix + (listed ? reason : std::string("other"))] +=
            static_cast<double>(n);
      }
    };
    tally("tasks.rejected.", rejected,
          {"allocation-failed", "domain-overloaded", "origin-unavailable",
           "rpc-timeout"});
    tally("tasks.failed.", failed, {"unrecoverable-member-failure"});
    if (tracer_ != nullptr) {
      for (const char* name :
           {"core.registry.random_alive_peer", "core.registry.materialize",
            "core.registry.demote", "core.registry.add_lazy", "core.bootstrap",
            "core.submit"}) {
        m[std::string(name) + ".wall_s"] = tracer_->wall_s(name);
      }
    }
  }

  const TaskParams& params_;
  std::uint64_t seed_;
  Tracer* tracer_;
  std::unique_ptr<bench::World> world_;
  check::InvariantChecker checker_;
  SimProbe probe_;
  util::SimTime next_boundary_ = util::seconds(2);
  std::vector<util::PeerId> lazy_;
  std::vector<util::PeerId> wave_;  // materialized by the current wave
  std::vector<util::TaskId> tasks_;
  std::vector<std::string> errors_;
  std::size_t scheduled_ = 0;
  std::size_t origin_picks_ = 0;
  std::size_t materialized_ = 0;
  std::size_t materialized_peak_ = 0;
  std::size_t demoted_ = 0;
};

RunResult run_tasks(const Options& opts, const TaskParams& params) {
  return repeat(opts, [&](Tracer* tracer) {
    return TaskRun(params, opts.seed, tracer).run();
  });
}

}  // namespace

// 1,000,000 registry rows around a small live core; waves of stride-sampled
// lazy peers materialize, carry tasks, drain and demote. Fully hierarchical,
// as bench_e2's scale mode runs.
RunResult run_lazy_million(const Options& opts) {
  TaskParams p;
  p.system.max_domain_size = 32;
  p.system.enable_hierarchical_infobase = true;
  p.system.gossip_domain_aggregates = true;
  p.core_peers = 256;
  p.lazy_rows = 1'000'000 - p.core_peers;
  p.waves = 2;
  p.wave_peers = 500;
  p.tasks_per_wave = 600;
  p.arrival_window = util::seconds(15);
  return run_tasks(opts, p);
}

// About 2,000 eager peers; tasks at a light per-peer rate (no admission
// overload), no churn, no faults.
RunResult run_full_2k(const Options& opts) {
  TaskParams p;
  p.core_peers = 2000;
  p.tasks_per_wave = 1200;
  p.arrival_window = util::seconds(20);
  return run_tasks(opts, p);
}

}  // namespace perfbench
