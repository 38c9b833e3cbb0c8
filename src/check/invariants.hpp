// System-wide invariants checked on event-loop boundaries.
//
// The fuzzer's oracle: properties that must hold for *every* scenario the
// generator can draw, regardless of faults, churn or workload. Boundary
// invariants hold at any instant between events (conservation laws, index
// equivalence, scheduling order); quiescent invariants additionally require
// the run to have drained (backup convergence, summary supersets,
// cleanliness). A violation is recorded once per invariant name with the
// simulated time and a diagnostic message; the fuzz driver then shrinks
// the scenario to a minimal repro (check/shrink.hpp).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace p2prm::core {
class System;
}

namespace p2prm::check {

enum class CheckPhase {
  Boundary,   // between event-loop slices, workload still running
  Quiescent,  // after the drain: no workload, churn or faults in flight
};
[[nodiscard]] std::string_view check_phase_name(CheckPhase phase);

struct Violation {
  std::string invariant;
  util::SimTime at = 0;
  std::string message;
};

class InvariantChecker {
 public:
  // Returns std::nullopt when the invariant holds, else a diagnostic.
  using Fn =
      std::function<std::optional<std::string>(core::System&, CheckPhase)>;

  InvariantChecker() = default;

  // An invariant with quiescent_only runs only in the Quiescent phase;
  // otherwise it runs in every phase.
  void add(std::string name, bool quiescent_only, Fn fn);

  // Runs every applicable invariant; records and returns the number of NEW
  // violations (each invariant reports at most once per run, so a broken
  // conservation law does not flood the report at every later boundary).
  std::size_t check(core::System& system, CheckPhase phase);

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool ok() const { return violations_.empty(); }
  void reset();

  [[nodiscard]] std::vector<std::string> invariant_names() const;

  // The default system-wide invariant set (docs/TESTING.md describes each):
  //   ledger.conservation      task accounting across admission/redirect/
  //                            drop/complete never loses or double-counts
  //   net.conservation         every send is delivered, dropped, partitioned
  //                            or undeliverable at most once
  //   load_index.equivalence   incremental LoadIndex == linear recompute
  //   registry.joined_index    System's joined-peer index == node scan
  //   sched.lls_laxity         per-dispatch least-laxity ordering
  //   rm.backup_convergence    RM and backup info bases agree at quiescence
  //   gossip.summary_superset  Bloom summaries ⊇ actual objects/services
  //   core.cleanliness         no leaked sessions/queues/commitments
  //   membership.attached      survivors re-attach to live domains
  static void register_defaults(InvariantChecker& checker);
  [[nodiscard]] static InvariantChecker with_defaults();

 private:
  struct Entry {
    std::string name;
    bool quiescent_only = false;
    bool fired = false;
    Fn fn;
  };
  std::vector<Entry> entries_;
  std::vector<Violation> violations_;
};

}  // namespace p2prm::check
