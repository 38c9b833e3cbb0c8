// A peer in the overlay: the actor that joins a domain, runs the local
// Connection Manager / Profiler / Scheduler (§2), executes service-graph
// hops, and — when selected — hosts the domain's Resource Manager.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/resource_manager.hpp"
#include "overlay/connection_manager.hpp"
#include "overlay/membership.hpp"
#include "overlay/peer.hpp"
#include "profile/profiler.hpp"
#include "sched/processor.hpp"
#include "sim/retry.hpp"

namespace p2prm::core {

class System;

struct PeerInventory {
  std::vector<media::MediaObject> objects;
  std::vector<ServiceOffering> services;
};

struct PeerStats {
  std::uint64_t hops_executed = 0;
  std::uint64_t hops_cancelled = 0;
  std::uint64_t streams_forwarded = 0;
  std::uint64_t rejoin_attempts = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t join_retries = 0;
  // TaskQuery -> TaskAccept/TaskReject RPC retries (fault hardening).
  sim::RetryStats query_retry;
  // ProfilerReport -> ReportAck retries (when acks are enabled).
  sim::RetryStats report_retry;
};

class PeerNode {
 public:
  PeerNode(System& system, overlay::PeerSpec spec, PeerInventory inventory);
  ~PeerNode();

  PeerNode(const PeerNode&) = delete;
  PeerNode& operator=(const PeerNode&) = delete;

  // --- lifecycle ----------------------------------------------------------
  // Joins through `contact` (any alive peer); with no contact the peer
  // founds the first domain and becomes its RM.
  void start(std::optional<util::PeerId> contact);
  // Graceful departure: notify the RM, cancel local work.
  void leave();
  // Abrupt failure: everything local stops silently.
  void crash();
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] bool joined() const { return joined_; }

  // --- identity / roles ------------------------------------------------------
  [[nodiscard]] const overlay::PeerSpec& spec() const { return spec_; }
  [[nodiscard]] util::PeerId id() const { return spec_.id; }
  [[nodiscard]] overlay::PeerRole role() const {
    return rm_ ? overlay::PeerRole::ResourceManager : overlay::PeerRole::Regular;
  }
  [[nodiscard]] util::DomainId domain() const { return domain_; }
  [[nodiscard]] util::PeerId current_rm() const { return my_rm_; }
  [[nodiscard]] ResourceManager* resource_manager() { return rm_.get(); }
  [[nodiscard]] const ResourceManager* resource_manager() const {
    return rm_.get();
  }

  // --- user API ----------------------------------------------------------------
  // Submits a query from the user at this peer to its RM (Fig. 2 step A).
  void submit_request(util::TaskId task, QoSRequirements q);
  // §4.5 dynamic QoS change: send the RM a new (relaxed or tightened)
  // deadline for a task this user submitted.
  void request_qos_update(util::TaskId task, util::SimDuration new_deadline);

  // --- components -----------------------------------------------------------------
  [[nodiscard]] sched::Processor& processor() { return *processor_; }
  [[nodiscard]] profile::Profiler& profiler() { return profiler_; }
  [[nodiscard]] overlay::ConnectionManager& connections() { return conns_; }
  [[nodiscard]] const PeerInventory& inventory() const { return inventory_; }
  [[nodiscard]] const PeerStats& stats() const { return stats_; }
  // Writes peer.* metrics (hop execution, stream forwarding, rejoin and
  // RPC-retry counters) plus this peer's processor series, labelled with
  // the peer id. An RM host also publishes its rm.* metrics.
  void publish(obs::MetricsRegistry& registry) const;
  [[nodiscard]] std::size_t active_sessions() const { return sessions_.size(); }
  // The profiler report period currently in force (RM-announced under
  // adaptive feedback, else the configured default).
  [[nodiscard]] util::SimDuration current_report_period() const;
  [[nodiscard]] std::size_t buffered_early_data() const {
    return early_data_.size();
  }
  // Backup-RM probes (src/check invariants): the backup designation this
  // peer last heard from its RM, and the synced info-base copy it would
  // restore from on takeover.
  [[nodiscard]] util::PeerId designated_backup() const {
    return designated_backup_;
  }
  [[nodiscard]] const std::optional<InfoBaseSnapshot>& backup_snapshot() const {
    return backup_copy_;
  }

  // --- plumbing used by ResourceManager and System ------------------------------
  void handle_message(util::PeerId from, const net::Message& message);
  void send(util::PeerId to, net::MessagePtr message);
  [[nodiscard]] System& system() { return system_; }
  // Promotion entry point (first node, JoinPromote, backup takeover).
  void become_rm(util::DomainId domain, std::vector<overlay::RmInfo> known_rms,
                 std::uint64_t epoch,
                 std::optional<InfoBaseSnapshot> restored);

  // --- lifetime-guarded deferral (docs/SCALING.md) -------------------------
  // Every one-shot callback a node (or its hosted RM) hands the simulator
  // must go through these: the wrapper drops the call if the node has been
  // destroyed by then. This is what makes demotion free to destroy a
  // PeerNode mid-run — timers and retry-ops are cancelled explicitly by
  // stop_local_work, network deliveries die on the endpoint epoch, and
  // deferred lambdas die here.
  void defer_after(util::SimDuration delay, std::function<void()> fn) {
    system_guarded_schedule(delay, /*absolute=*/false, std::move(fn));
  }
  void defer_at(util::SimTime when, std::function<void()> fn) {
    system_guarded_schedule(when, /*absolute=*/true, std::move(fn));
  }

  // --- lazy lifecycle probes (System::demote_peer) -------------------------
  // A peer is quiescent when demoting it cannot lose work: joined as a
  // plain member (never an RM and not holding the domain's backup
  // snapshot), with no sessions, buffered data, queued jobs or in-flight
  // task RPCs.
  [[nodiscard]] bool quiescent() const;
  // Last time this peer did application work — submitted a task or
  // finished a job (start time when none since). Control traffic
  // (heartbeats, gossip, reports) deliberately does not count: it never
  // stops, so it would make every member look permanently busy.
  [[nodiscard]] util::SimTime last_activity() const { return last_activity_; }
  // Step down with no known successor and rejoin through the overlay (an
  // RM that lost every member to failure detection is almost certainly the
  // partitioned one). Invoked by the hosted ResourceManager via a deferred
  // event.
  void demote_and_rejoin();

 private:
  struct HopSession {
    HopSpec spec;
    bool job_submitted = false;
    util::JobId job;
    util::SimTime data_arrived_at = 0;
    util::SimTime pipeline_started_at = 0;
    // Distinguishes re-compositions of the same (task, hop) so expiry
    // events for a superseded session cannot reap its successor.
    std::uint64_t token = 0;
  };
  using SessionKey = std::pair<util::TaskId, std::size_t>;

  // --- membership client side ---------------------------------------------------
  void on_join_redirect(const overlay::JoinRedirect& m);
  void on_join_accept(util::PeerId from, const overlay::JoinAccept& m);
  void on_join_promote(const overlay::JoinPromote& m);
  void on_rm_heartbeat(util::PeerId from, const overlay::RmHeartbeat& m);
  void on_rm_takeover(util::PeerId from, const overlay::RmTakeover& m);
  // Step down as RM in favour of a higher-epoch successor (split-brain
  // resolution after a partition heals).
  void abdicate(util::PeerId new_rm, std::uint64_t new_epoch);
  void on_backup_sync(const BackupSync& m, util::PeerId from);
  void announce_to_rm();
  void membership_check_tick();
  void rejoin();

  // --- session execution (Fig. 2 step C) --------------------------------------------
  void on_graph_compose(const GraphCompose& m);
  void on_source_start(const SourceStart& m);
  void on_stream_data(const StreamData& m);
  void on_hop_cancel(const HopCancel& m);
  void on_job_finished(const sched::Job& job, sched::JobStatus status);
  void forward_hop_output(const HopSession& session);
  void deliver_to_user(const StreamData& m);

  // --- profiler reporting ----------------------------------------------------------
  void report_tick();

  // Settles the retry op watching `task`'s TaskQuery (any terminal signal —
  // accept, reject, failure, completion — counts as an ack).
  void settle_task_query(util::TaskId task);

  void stop_local_work();
  void system_guarded_schedule(std::int64_t when_or_delay, bool absolute,
                               std::function<void()> fn);

  System& system_;
  overlay::PeerSpec spec_;
  PeerInventory inventory_;
  // Lifetime guard: deferred callbacks hold a weak_ptr and no-op once the
  // node is destroyed (demotion). The pointee is irrelevant.
  std::shared_ptr<char> life_ = std::make_shared<char>('\0');
  util::SimTime last_activity_ = 0;

  std::unique_ptr<sched::Processor> processor_;
  profile::Profiler profiler_;
  overlay::ConnectionManager conns_;
  std::unique_ptr<ResourceManager> rm_;

  // Written only through set_membership, which reports each edge of
  // (alive_ && joined_) to System's joined-peer index.
  bool alive_ = false;
  bool joined_ = false;
  void set_membership(bool alive, bool joined);
  util::DomainId domain_;
  util::PeerId my_rm_;
  std::uint64_t epoch_ = 0;
  util::SimTime last_rm_heartbeat_ = 0;
  util::PeerId designated_backup_;
  std::optional<InfoBaseSnapshot> backup_copy_;
  std::vector<overlay::RmInfo> backup_known_rms_;

  std::map<SessionKey, HopSession> sessions_;
  std::map<util::JobId, SessionKey> job_index_;
  // StreamData that arrived before its GraphCompose (reordering guard),
  // stamped with a token for expiry.
  std::map<SessionKey, std::pair<StreamData, std::uint64_t>> early_data_;
  std::uint64_t session_tokens_ = 0;
  void close_session_connections(const HopSession& session);

  sim::Timer report_timer_;
  util::SimDuration report_period_ = 0;  // current (possibly RM-announced)
  sim::Timer membership_timer_;
  PeerStats stats_;
  // Retry/timeout hardening (see docs/FAULT_MODEL.md). Each submitted
  // TaskQuery is watched until a terminal answer; each profiler report is
  // resent until acked (or superseded by the next report).
  std::map<util::TaskId, sim::RetryOp> query_retries_;
  sim::RetryOp report_retry_op_;
  std::uint64_t report_seq_ = 0;
  ProfilerReport pending_report_;
  // Join progress: redirect hops this attempt; retries scheduled with
  // backoff when an attempt dead-ends (rejection or a redirect loop).
  // The bootstrap contact is remembered because in a multi-process
  // deployment this System hosts only a slice of the overlay: when
  // random_alive_peer finds nobody locally, retries must still go out
  // across the wire instead of concluding the network is gone.
  std::optional<util::PeerId> boot_contact_;
  int redirect_hops_ = 0;
  int join_attempts_ = 0;
  int join_watchdog_token_ = 0;
  void schedule_join_retry();
  // Arms a timeout for the join request just sent: a lost request (drop,
  // partition, dead contact) must not leave the peer detached forever.
  void arm_join_watchdog();
  // Re-adopts this peer into `domain` under `from` after it dropped out
  // via rejoin(): the takeover RM's announcement/heartbeats are
  // authoritative for members whose silence threshold fired first.
  bool try_readopt(util::PeerId from, util::DomainId domain,
                   std::uint64_t epoch);
};

}  // namespace p2prm::core
