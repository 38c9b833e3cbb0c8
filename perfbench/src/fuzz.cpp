// fuzz-sweep: the scenario fuzzer over a fixed seed range, oracles on.
// Many small Systems are built and torn down, with invariant checks at
// every boundary and four oracle replays per clean seed.
#include "bench.hpp"
#include "check/runner.hpp"
#include "check/scenario.hpp"

namespace perfbench {
namespace {

using namespace p2prm;

// The sweep covers fuzz seeds [0, kSeeds): scenarios differ widely in size,
// so a range picked by the workload seed would change the sweep's work far
// more than any code change does. The workload seed sets the sweep order.
constexpr std::uint64_t kSeeds = 48;
// Spec generation is short; it is repeated and the median reported.
constexpr int kSetupRepeats = 15;
// Oracle replay on the parallel engine at this many threads.
constexpr unsigned kParallelOracleThreads = 2;

std::vector<check::ScenarioSpec> generate_specs(
    const std::vector<std::uint64_t>& seeds, std::vector<std::string>& errors) {
  std::vector<check::ScenarioSpec> specs;
  specs.reserve(seeds.size());
  for (const std::uint64_t s : seeds) {
    specs.push_back(check::ScenarioSpec::generate(s));
    const auto parsed = check::ScenarioSpec::parse(specs.back().repro());
    if (!parsed || !(*parsed == specs.back())) {
      errors.push_back("seed " + std::to_string(s) +
                       ": repro string does not round-trip");
    }
  }
  return specs;
}

RepOutcome fuzz_rep(std::uint64_t seed, Tracer* tracer) {
  RepOutcome out;
  std::vector<std::uint64_t> order(kSeeds);
  for (std::uint64_t s = 0; s < kSeeds; ++s) order[s] = s;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xF022);
  rng.shuffle(order.begin(), order.end());

  std::vector<check::ScenarioSpec> specs;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    std::vector<std::string> errors;
    Scope span(tracer, "check.generate");
    const std::int64_t t0 = now_ns();
    specs = generate_specs(order, errors);
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (i == 0) out.errors = errors;
  }
  out.setup_s = median(setup);

  std::vector<check::SeedOutcome> outcomes;
  std::vector<double> seed_s;
  const std::int64_t t1 = now_ns();
  {
    Scope span(tracer, "bench.sweep");
    for (const check::ScenarioSpec& spec : specs) {
      // check::fuzz_seed's body, on the spec generated above.
      Scope seed_span(tracer, "check.run_spec");
      const std::int64_t s0 = now_ns();
      outcomes.push_back(check::run_spec(spec, /*oracles=*/true,
                                         kParallelOracleThreads));
      seed_s.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    }
  }
  out.run_s = static_cast<double>(now_ns() - t1) * 1e-9;

  std::uint64_t on_time = 0, trace_events = 0, net_sent = 0, digest = 0;
  for (const check::SeedOutcome& o : outcomes) {
    ++out.attempted;
    if (!o.ok()) {
      ++out.failed;
      const check::Violation& v = o.result.violations.front();
      out.errors.push_back("seed " + std::to_string(o.spec.seed) + ": " +
                           v.invariant + ": " + v.message + " (repro " +
                           o.spec.repro() + ")");
    }
    on_time += o.result.completed - o.result.missed;
    trace_events += o.result.trace_events;
    net_sent += o.result.net_sent;
    digest ^= o.result.digest;  // order-free: the sweep order is seeded
  }
  out.on_time = static_cast<double>(on_time);
  out.fingerprint = {{"check.digest", digest},
                     {"check.on_time", on_time},
                     {"check.trace_events", trace_events},
                     {"check.net_sent", net_sent}};

  Metrics& m = out.layer;
  m["check.scenarios"] = static_cast<double>(outcomes.size());
  m["check.trace_events"] = static_cast<double>(trace_events);
  m["check.net_sent"] = static_cast<double>(net_sent);
  m["check.scenario_wall_s.p50"] = quantile(seed_s, 0.50);
  m["check.scenario_wall_s.p99"] = quantile(seed_s, 0.99);
  if (tracer != nullptr) {
    // The base run alone (run_scenario, no oracles), timed after the sweep
    // so the traced sweep does the same work as an untraced one.
    for (const check::ScenarioSpec& spec : specs) {
      Scope span(tracer, "check.base");
      (void)check::run_scenario(spec);
    }
    const double base = tracer->wall_s("check.base");
    m["check.base.wall_s"] = base;
    m["check.oracles.wall_s"] = tracer->wall_s("check.run_spec") - base;
  }
  return out;
}

}  // namespace

RunResult run_fuzz_sweep(const Options& opts) {
  return repeat(opts, [&](Tracer* tracer) { return fuzz_rep(opts.seed, tracer); });
}

}  // namespace perfbench
