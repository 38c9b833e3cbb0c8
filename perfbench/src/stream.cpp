// stream-flash: a standalone stream::StreamEngine pool (the E10 set-up)
// playing a seeded multi-channel plan with viewer churn and one flash crowd.
// No RM protocol runs: the per-chunk path and chain placement dominate.
#include "bench.hpp"
#include "core/allocation.hpp"
#include "media/catalog.hpp"
#include "net/network.hpp"
#include "stream/engine.hpp"
#include "workload/streaming.hpp"

namespace perfbench {
namespace {

using namespace p2prm;

// An hour of air time on ten channels; 2,000 churning viewers (about 17
// watching at a time) plus a 20-viewer flash crowd on one channel.
constexpr std::size_t kPeers = 400;
constexpr std::uint32_t kChannels = 10;
constexpr std::uint32_t kViewers = 2000;
constexpr std::uint32_t kFlash = 20;
constexpr int kLiveWindowS = 3600;
constexpr double kMeanWatchS = 30.0;
constexpr std::size_t kServicesPerPeer = 6;

RepOutcome stream_rep(std::uint64_t seed, core::AllocatorKind allocator,
                      Tracer* tracer) {
  RepOutcome out;
  Scope rep_span(tracer, "bench.rep");
  const std::int64_t t0 = now_ns();

  // --- set-up: plan + pool --------------------------------------------------
  const media::Catalog catalog = media::ladder_catalog();
  workload::StreamingConfig scfg;
  scfg.seed = seed;
  scfg.channels = kChannels;
  scfg.viewers = kViewers;
  scfg.flash_crowd = kFlash;
  scfg.live_window = util::seconds(kLiveWindowS);
  scfg.flash_at = util::seconds(120);
  scfg.mean_watch_s = kMeanWatchS;
  std::vector<util::PeerId> sources, sinks;
  for (std::uint32_t c = 0; c < kChannels; ++c) sources.push_back(util::PeerId{c});
  for (std::uint32_t v = 0; v < kViewers + kFlash; ++v) {
    sinks.push_back(util::PeerId{100000 + v});
  }
  std::optional<workload::StreamPlan> plan;
  {
    Scope span(tracer, "workload.stream_plan");
    plan = workload::StreamingScenario(catalog, scfg).build(sources, sinks);
  }

  sim::Simulator sim{1};
  net::Topology topo{};
  net::Network net(sim, topo);
  core::SystemConfig config{};
  config.allocator = allocator;
  std::optional<stream::StreamEngine> engine;
  std::map<util::PeerId, double> uplink;  // the rates drawn here
  {
    Scope span(tracer, "stream.pool");
    engine.emplace(sim, net, config, *plan);
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xE10);
    const auto& conversions = catalog.conversions();
    std::uint64_t service_id = 1;
    for (std::size_t p = 0; p < kPeers; ++p) {
      overlay::PeerSpec spec;
      spec.id = util::PeerId{p};
      // Three times E10's CPU: at 30-90 Mops a chain of heavy transcodes
      // overruns the 2-s chunk deadline by itself on some seeds.
      spec.capacity_ops_per_s = rng.uniform(90e6, 270e6);
      spec.link.uplink_bytes_per_s = rng.uniform(1.5e6, 6.0e6);
      spec.link.downlink_bytes_per_s = spec.link.uplink_bytes_per_s;
      uplink[spec.id] = spec.link.uplink_bytes_per_s;
      topo.place_at(spec.id, {rng.uniform(0, 1000), rng.uniform(0, 1000)});
      std::vector<core::ServiceOffering> services;
      for (std::size_t s = 0; s < kServicesPerPeer; ++s) {
        // Round-robin over the catalog: every conversion has several hosts.
        services.push_back(core::ServiceOffering{
            util::ServiceId{service_id++},
            conversions[(p * kServicesPerPeer + s) % conversions.size()]});
      }
      engine->add_peer(spec, services);
    }
    for (const workload::ViewerPlan& v : plan->viewers) {
      topo.place_at(v.sink, {rng.uniform(0, 1000), rng.uniform(0, 1000)});
    }
  }
  const std::int64_t t1 = now_ns();

  // --- run: play the plan to its last outcome -------------------------------
  SimProbe probe;
  {
    Scope span(tracer, "stream.start");
    engine->start();
  }
  const util::SimTime end = plan->config.live_window +
                            plan->config.chunk_deadline +
                            plan->config.late_grace + util::seconds(5);
  advance(sim, net, end, tracer, &probe);
  const std::int64_t t2 = now_ns();
  out.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  out.run_s = static_cast<double>(t2 - t1) * 1e-9;

  // --- checks -----------------------------------------------------------------
  const stream::StreamStats& st = engine->stats();
  if (const auto err = engine->accounting_error()) {
    out.errors.push_back("stream accounting: " + *err);
  }
  if (st.chunks_generated !=
          st.chunks_delivered + st.chunks_late + st.chunks_dropped ||
      st.chunks_in_flight != 0) {
    out.errors.push_back(
        "chunk copies: generated " + std::to_string(st.chunks_generated) +
        " != delivered + late + dropped, or " +
        std::to_string(st.chunks_in_flight) + " still in flight");
  }
  const double elapsed_s = util::to_seconds(sim.now());
  for (const auto& [peer, account] : engine->upload_accounts()) {
    const auto it = uplink.find(peer);
    const double cap = it == uplink.end() ? 0.0 : it->second * elapsed_s;
    if (account.bytes_sent > cap) {
      out.errors.push_back("peer " + util::to_string(peer) + " uploaded " +
                           std::to_string(account.bytes_sent) + " B over a " +
                           std::to_string(cap) + " B uplink");
    }
  }

  out.attempted = st.chunks_generated;
  out.on_time = static_cast<double>(st.chunks_delivered);
  out.fingerprint = {{"stream.digest", engine->digest()},
                     {"stream.generated", st.chunks_generated},
                     {"stream.delivered", st.chunks_delivered},
                     {"stream.late", st.chunks_late},
                     {"stream.dropped", st.chunks_dropped},
                     {"stream.chain_rebuilds", st.chain_rebuilds},
                     {"sim.events", sim.events_executed()}};

  Metrics& m = out.layer;
  m["sim.events"] = static_cast<double>(sim.events_executed());
  m["sim.events_scheduled"] = static_cast<double>(sim.events_scheduled());
  m["sim.queue.compactions"] =
      static_cast<double>(sim.queue().stats().compactions);
  std::vector<double> ev_us;
  ev_us.reserve(probe.event_ns.size());
  for (const std::uint32_t ns : probe.event_ns) ev_us.push_back(ns * 1e-3);
  m["sim.event_wall_us.p50"] = quantile(ev_us, 0.50);
  m["sim.event_wall_us.p99"] = quantile(ev_us, 0.99);
  m["sim.delivery_wall_s"] = static_cast<double>(probe.delivery_ns) * 1e-9;
  m["sim.other_wall_s"] = static_cast<double>(probe.other_ns) * 1e-9;
  m["stream.chunks_generated"] = static_cast<double>(st.chunks_generated);
  m["stream.late"] = static_cast<double>(st.chunks_late);
  m["stream.dropped"] = static_cast<double>(st.chunks_dropped);
  m["stream.chain_rebuilds"] = static_cast<double>(st.chain_rebuilds);
  m["stream.placement_failures"] = static_cast<double>(st.placement_failures);
  m["stream.uplink_saturation_max"] = engine->max_upload_saturation();
  if (tracer != nullptr) m["stream.start.wall_s"] = tracer->wall_s("stream.start");
  return out;
}

}  // namespace

RunResult run_stream_flash(const Options& opts) {
  const core::AllocatorKind allocator =
      core::allocator_from_name(opts.allocator);
  return repeat(opts, [&](Tracer* tracer) {
    return stream_rep(opts.seed, allocator, tracer);
  });
}

}  // namespace perfbench
