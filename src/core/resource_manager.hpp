// The Resource Manager (§2): leader of a domain.
//
// "The Resource Manager has a global view of the domain in terms of the
// applications in the domain and the utilization of the system resources.
// The responsibility of the Resource Manager is to distribute the
// application objects on the processors to meet the application QoS
// requirements."
//
// Hosted by a PeerNode (RMs "are selected among regular peers"). Owns the
// information base, the allocator, admission control, the adaptation loop
// (failure recovery + overload reassignment), heartbeats, backup-RM
// synchronization and the inter-domain gossip engine.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/admission.hpp"
#include "core/allocation.hpp"
#include "core/info_base.hpp"
#include "core/messages.hpp"
#include "gossip/gossip_engine.hpp"
#include "overlay/membership.hpp"
#include "sim/retry.hpp"
#include "util/stats.hpp"

namespace p2prm::core {

class PeerNode;

struct RmStats {
  std::uint64_t queries_received = 0;
  std::uint64_t queries_redirected_in = 0;  // arrived with redirect_count > 0
  std::uint64_t tasks_admitted = 0;
  std::uint64_t tasks_rejected = 0;
  std::uint64_t redirects_out = 0;
  std::uint64_t allocation_no_object = 0;
  std::uint64_t allocation_no_path = 0;
  std::uint64_t allocation_deadline = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_missed = 0;
  std::uint64_t tasks_failed = 0;
  // Members removed from the domain, graceful leaves included: on_leave
  // (a LeaveNotice, also sent by a demoted peer) goes through the same
  // handle_member_failure as a detected failure.
  std::uint64_t member_failures = 0;
  std::uint64_t recoveries_attempted = 0;
  std::uint64_t recoveries_succeeded = 0;
  std::uint64_t reassignments = 0;
  std::uint64_t tasks_expired = 0;  // GC'd after deadline + grace
  std::uint64_t qos_updates = 0;
  std::uint64_t qos_replans = 0;  // tightened deadline forced a re-plan
  std::uint64_t joins_accepted = 0;
  std::uint64_t joins_promoted = 0;
  std::uint64_t joins_redirected = 0;
  // Fault hardening: duplicate-suppression and retry bookkeeping.
  std::uint64_t duplicate_queries = 0;   // retried/duplicated TaskQuery
  std::uint64_t duplicate_reports = 0;   // stale-seq ProfilerReport
  // Control-plane hot-path counters: Figure 3 search work and path-cache
  // effectiveness, accumulated over every allocation this RM ran.
  std::uint64_t search_vertices_popped = 0;
  std::uint64_t path_cache_hits = 0;
  std::uint64_t path_cache_misses = 0;
  sim::RetryStats backup_sync_retry;     // BackupSync -> BackupSyncAck
  util::RunningStats allocation_fairness;
  util::RunningStats candidates_per_allocation;
};

class ResourceManager {
 public:
  // `restored` is the backup's snapshot on takeover; nullopt for a fresh
  // domain. `epoch` must exceed any epoch the members have seen.
  ResourceManager(PeerNode& host, util::DomainId domain,
                  std::vector<overlay::RmInfo> known_rms,
                  std::optional<InfoBaseSnapshot> restored,
                  std::uint64_t epoch);
  ~ResourceManager();

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  // Starts heartbeats, backup sync, gossip and the adaptation loop; called
  // once the host peer is attached to the network.
  void start();
  void stop();

  // Routes one message; returns false if the type is not RM business.
  bool handle(util::PeerId from, const net::Message& message);

  [[nodiscard]] util::DomainId domain_id() const { return info_.domain().id(); }
  [[nodiscard]] InfoBase& info() { return info_; }
  [[nodiscard]] const InfoBase& info() const { return info_; }
  [[nodiscard]] gossip::GossipEngine& gossip() { return *gossip_; }
  [[nodiscard]] const gossip::GossipEngine& gossip() const { return *gossip_; }
  [[nodiscard]] const RmStats& stats() const { return stats_; }
  // Writes rm.* metrics (admission/recovery/redirect counters, fairness
  // distribution, backup-sync retries, path-cache effectiveness) labelled
  // with this RM's domain.
  void publish(obs::MetricsRegistry& registry) const;
  [[nodiscard]] const std::vector<overlay::RmInfo>& known_rms() const {
    return known_rms_;
  }

  // Exposed for adaptation tests: run one tick immediately.
  void adaptation_tick();

 private:
  // --- message handlers -----------------------------------------------------
  void on_join_request(util::PeerId from, const overlay::JoinRequest& m);
  void on_leave(util::PeerId from);
  void on_peer_announce(const PeerAnnounce& m);
  void on_profiler_report(util::PeerId from, const ProfilerReport& m);
  void on_task_query(const TaskQuery& m);
  void on_hop_done(util::PeerId from, const HopDone& m);
  void on_task_completed(const TaskCompleted& m);
  void on_qos_update(const TaskQosUpdate& m);
  void on_rm_intro(const overlay::RmPeerIntro& m);

  // --- periodic work -----------------------------------------------------------
  void heartbeat_tick();
  void backup_sync_tick();

  // --- allocation pipeline --------------------------------------------------------
  void admit_or_redirect(const TaskQuery& query);
  bool try_allocate_and_compose(const TaskQuery& query);
  void compose(ActiveTask& task,
               const std::vector<std::pair<util::PeerId, double>>& deltas);
  void redirect_query(const TaskQuery& query, const std::string& reason);
  void reject_task(const TaskQuery& query, const std::string& reason);

  // --- adaptation --------------------------------------------------------------
  void handle_member_failure(util::PeerId peer);
  // Re-runs allocation for a disrupted/overloaded task. When
  // `keep_if_infeasible` is set (overload reassignment), an allocation
  // failure leaves the existing (still functional) assignment untouched;
  // otherwise (member failure) the task fails. Returns true if the task
  // was re-composed.
  bool recover_task(util::TaskId task_id, const char* cause,
                    bool keep_if_infeasible = false);
  void cancel_task_hops(ActiveTask& task, bool notify_peers);
  void release_task_loads(ActiveTask& task);
  void fail_task(ActiveTask& task, const std::string& reason);

  void publish_summary();
  [[nodiscard]] std::vector<util::PeerId> rm_peer_ids() const;
  void add_known_rm(overlay::RmInfo info);
  // True when `info` is safe to route a joiner or redirected query to: its
  // domain's summary is fresh per gossip, or the entry itself is so recent
  // that a freshly founded domain plausibly has not gossiped yet. Dead
  // domains fail both tests — without this, routing loops on stale entries
  // strand joiners forever (found by the scenario fuzzer).
  [[nodiscard]] bool rm_routable(const overlay::RmInfo& info) const;
  // Remembers a task that reached a terminal state, so a retried (or
  // network-duplicated) TaskQuery for it cannot re-admit it.
  void note_terminal(util::TaskId id);

  PeerNode& host_;
  InfoBase info_;
  std::unique_ptr<Allocator> allocator_;
  OverloadDetector overload_;
  std::unique_ptr<gossip::GossipEngine> gossip_;
  std::vector<overlay::RmInfo> known_rms_;  // other domains' RMs
  // When each known_rms_ entry was added or last re-confirmed; bounds the
  // no-summary-yet grace window in rm_routable().
  std::unordered_map<util::DomainId, util::SimTime> rm_seen_;
  util::Rng rng_;
  RmStats stats_;

  sim::Timer heartbeat_timer_;
  sim::Timer backup_sync_timer_;
  sim::Timer adaptation_timer_;
  bool started_ = false;

  // Fault hardening (see docs/FAULT_MODEL.md): report duplicate detection,
  // BackupSync retry, and a bounded memory of recently terminal tasks.
  std::unordered_map<util::PeerId, std::uint64_t> last_report_seq_;
  sim::RetryOp backup_sync_retry_op_;
  std::uint64_t backup_sync_seq_ = 0;
  BackupSync pending_sync_;
  std::deque<util::TaskId> recent_terminal_order_;
  std::unordered_set<util::TaskId> recent_terminal_;
};

}  // namespace p2prm::core
