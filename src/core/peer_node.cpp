#include "core/peer_node.hpp"

#include <cassert>

#include "core/system.hpp"
#include "util/logging.hpp"

namespace p2prm::core {

namespace {
constexpr const char* kLog = "peer";
}

PeerNode::PeerNode(System& system, overlay::PeerSpec spec,
                   PeerInventory inventory)
    : system_(system),
      spec_(spec),
      inventory_(std::move(inventory)),
      profiler_(spec.capacity_ops_per_s,
                profile::ProfilerConfig{system.config().ewma_alpha}),
      conns_(system.config().max_connections) {
  sched::ProcessorConfig pc;
  pc.ops_per_second = spec_.capacity_ops_per_s;
  pc.policy = system_.config().scheduling_policy;
  pc.drop_hopeless_jobs = system_.config().drop_hopeless_jobs;
  processor_ = std::make_unique<sched::Processor>(
      system_.simulator(), pc,
      [this](const sched::Job& job, sched::JobStatus status) {
        on_job_finished(job, status);
      });
}

PeerNode::~PeerNode() { stop_local_work(); }

// ---------------------------------------------------------------------------
// Lifecycle

void PeerNode::start(std::optional<util::PeerId> contact) {
  set_membership(true, joined_);
  last_activity_ = system_.simulator().now();
  boot_contact_ = contact;
  if (!contact) {
    // First peer in the network: found the first domain (§4.1).
    become_rm(system_.next_domain_id(), {}, /*epoch=*/1, std::nullopt);
    return;
  }
  auto req = std::make_unique<overlay::JoinRequest>();
  req->spec = spec_;
  send(*contact, std::move(req));
  arm_join_watchdog();
}

void PeerNode::leave() {
  if (!alive_) return;
  if (joined_ && !rm_ && my_rm_.valid()) {
    auto notice = std::make_unique<overlay::LeaveNotice>();
    send(my_rm_, std::move(notice));
  }
  // An RM leaving gracefully still relies on the backup takeover path: the
  // paper's §4.1 describes succession only through the backup "sensing the
  // withdrawn connection".
  stop_local_work();
  set_membership(false, false);
}

void PeerNode::crash() {
  stop_local_work();
  set_membership(false, false);
}

void PeerNode::set_membership(bool alive, bool joined) {
  const bool was = alive_ && joined_;
  alive_ = alive;
  joined_ = joined;
  if (was != (alive && joined)) system_.note_joined(spec_.id, !was);
}

void PeerNode::stop_local_work() {
  report_timer_.cancel();
  membership_timer_.cancel();
  report_retry_op_.cancel();
  for (auto& [task, op] : query_retries_) op.cancel();
  query_retries_.clear();
  if (rm_) {
    rm_->stop();
    rm_.reset();
  }
  if (processor_) processor_->cancel_all();
  sessions_.clear();
  job_index_.clear();
  early_data_.clear();
  conns_.drop_everything();
  backup_copy_.reset();
}

util::SimDuration PeerNode::current_report_period() const {
  return report_period_ > 0 ? report_period_ : system_.config().report_period;
}

void PeerNode::system_guarded_schedule(std::int64_t when_or_delay,
                                       bool absolute,
                                       std::function<void()> fn) {
  auto guarded = [weak = std::weak_ptr<char>(life_), fn = std::move(fn)] {
    if (weak.lock()) fn();
  };
  if (absolute) {
    system_.simulator().schedule_at(when_or_delay, std::move(guarded));
  } else {
    system_.simulator().schedule_after(when_or_delay, std::move(guarded));
  }
}

bool PeerNode::quiescent() const {
  return alive_ && joined_ && rm_ == nullptr && sessions_.empty() &&
         early_data_.empty() && query_retries_.empty() &&
         job_index_.empty() && !backup_copy_.has_value() &&
         designated_backup_ != spec_.id;
}

void PeerNode::send(util::PeerId to, net::MessagePtr message) {
  if (!alive_) return;
  stats_.bytes_sent += message->wire_size() + net::kEnvelopeBytes;
  system_.transport().send(spec_.id, to, std::move(message));
}

// ---------------------------------------------------------------------------
// Promotion

void PeerNode::become_rm(util::DomainId domain,
                         std::vector<overlay::RmInfo> known_rms,
                         std::uint64_t epoch,
                         std::optional<InfoBaseSnapshot> restored) {
  assert(alive_);
  domain_ = domain;
  my_rm_ = spec_.id;
  epoch_ = epoch;
  set_membership(alive_, true);
  rm_ = std::make_unique<ResourceManager>(*this, domain, std::move(known_rms),
                                          std::move(restored), epoch);
  rm_->start();
  if (!report_timer_.active()) {
    report_timer_ = system_.simulator().every(
        system_.config().report_period, [this] { report_tick(); });
  }
  membership_timer_.cancel();  // RMs do not watch for their own heartbeats
  system_.trace(epoch > 1 ? TraceKind::RmTakeover : TraceKind::RmPromoted,
                spec_.id, util::TaskId::invalid(), domain,
                {{"epoch", epoch}});
  P2PRM_LOG(Info, kLog, system_.simulator().now_seconds())
      << "peer " << spec_.id << " is now RM of domain " << domain << " (epoch "
      << epoch << ")";
}

// ---------------------------------------------------------------------------
// Message dispatch

void PeerNode::handle_message(util::PeerId from, const net::Message& message) {
  if (!alive_) return;
  // Deliberately NOT an activity touch: heartbeats and gossip arrive
  // forever, so counting control traffic would make every member immortal.
  // Activity = application work (requests, jobs); quiescent() separately
  // refuses demotion while any protocol state is in flight.

  // RM-side protocol first (join requests, reports, task queries, ...).
  if (rm_ && rm_->handle(from, message)) return;

  if (const auto* m = net::message_as<overlay::JoinRequest>(message)) {
    // Not an RM: "a random peer who redirects it to the Resource Manager".
    (void)m;
    auto redirect = std::make_unique<overlay::JoinRedirect>();
    redirect->target_rm = joined_ ? my_rm_ : util::PeerId::invalid();
    send(from, std::move(redirect));
    return;
  }
  if (const auto* m = net::message_as<overlay::JoinRedirect>(message)) {
    on_join_redirect(*m);
    return;
  }
  if (const auto* m = net::message_as<overlay::JoinAccept>(message)) {
    on_join_accept(from, *m);
    return;
  }
  if (const auto* m = net::message_as<overlay::JoinPromote>(message)) {
    on_join_promote(*m);
    return;
  }
  if (const auto* m = net::message_as<overlay::RmHeartbeat>(message)) {
    on_rm_heartbeat(from, *m);
    return;
  }
  if (const auto* m = net::message_as<overlay::RmTakeover>(message)) {
    on_rm_takeover(from, *m);
    return;
  }
  if (const auto* m = net::message_as<BackupSync>(message)) {
    on_backup_sync(*m, from);
    return;
  }
  if (const auto* m = net::message_as<GraphCompose>(message)) {
    on_graph_compose(*m);
    return;
  }
  if (const auto* m = net::message_as<SourceStart>(message)) {
    on_source_start(*m);
    return;
  }
  if (const auto* m = net::message_as<StreamData>(message)) {
    profiler_.record_communication(from, system_.simulator().now() - m->sent_at);
    on_stream_data(*m);
    return;
  }
  if (const auto* m = net::message_as<HopCancel>(message)) {
    on_hop_cancel(*m);
    return;
  }
  if (const auto* m = net::message_as<TaskAccept>(message)) {
    settle_task_query(m->task);
    system_.ledger().on_estimate(m->task, m->estimated_execution);
    return;
  }
  if (const auto* m = net::message_as<TaskReject>(message)) {
    settle_task_query(m->task);
    system_.ledger().on_rejected(m->task, m->reason);
    system_.trace(TraceKind::TaskRejected, spec_.id, m->task,
                  util::DomainId::invalid(), {{"reason", m->reason}});
    return;
  }
  if (const auto* m = net::message_as<TaskFailedMsg>(message)) {
    settle_task_query(m->task);
    system_.ledger().on_failed(m->task, m->reason);
    system_.trace(TraceKind::TaskFailed, spec_.id, m->task,
                  util::DomainId::invalid(), {{"reason", m->reason}});
    return;
  }
  if (const auto* m = net::message_as<ReportAck>(message)) {
    if (m->seq == report_seq_) report_retry_op_.ack();
    return;
  }
  if (net::message_as<TaskQuery>(message) != nullptr && joined_ &&
      my_rm_.valid() && my_rm_ != spec_.id) {
    // A query reached a peer that stopped being RM (stale sender view, RM
    // failover): forward to the RM we currently know.
    auto fwd = std::make_unique<TaskQuery>(
        *net::message_as<TaskQuery>(message));
    send(my_rm_, std::move(fwd));
    return;
  }
  // Remaining RM-only messages (ProfilerReport, HopDone, gossip, ...) that
  // reached a non-RM peer are stale; drop them.
}

// ---------------------------------------------------------------------------
// Membership (client side)

void PeerNode::on_join_redirect(const overlay::JoinRedirect& m) {
  if (joined_) return;
  constexpr int kMaxRedirectHops = 8;
  if (!m.target_rm.valid() || m.target_rm == spec_.id ||
      ++redirect_hops_ > kMaxRedirectHops) {
    P2PRM_LOG(Debug, kLog, system_.simulator().now_seconds())
        << "peer " << spec_.id << " join attempt dead-ended; will retry";
    schedule_join_retry();
    return;
  }
  auto req = std::make_unique<overlay::JoinRequest>();
  req->spec = spec_;
  send(m.target_rm, std::move(req));
  arm_join_watchdog();
}

void PeerNode::arm_join_watchdog() {
  const int token = ++join_watchdog_token_;
  defer_after(util::seconds(5), [this, token] {
    if (!alive_ || joined_ || token != join_watchdog_token_) return;
    schedule_join_retry();
  });
}

void PeerNode::schedule_join_retry() {
  // Exponential backoff per the configured join policy; retry through a
  // fresh random contact.
  const util::BackoffPolicy& policy = system_.config().retry.join;
  const auto delay =
      policy.delay(join_attempts_, &system_.simulator().rng());
  ++join_attempts_;
  ++stats_.join_retries;
  defer_after(delay, [this] {
    if (!alive_ || joined_) return;
    redirect_hops_ = 0;
    std::optional<util::PeerId> contact = system_.random_alive_peer(spec_.id);
    if (!contact) {
      // Nobody hosted locally. Once the policy's attempts are spent,
      // assume the rest of the network is gone and found a fresh domain —
      // otherwise a sole survivor would stay detached forever. Until
      // then, keep retrying: in a multi-process deployment this System
      // hosts only its own slice of the overlay, so an empty local
      // registry says nothing about the bootstrap contact across the
      // wire (a join whose first exchange lost a frame must not strand).
      if (system_.config().retry.join.exhausted(join_attempts_ - 1)) {
        become_rm(system_.next_domain_id(), {}, /*epoch=*/1, std::nullopt);
        return;
      }
      if (boot_contact_ && *boot_contact_ != spec_.id) {
        contact = boot_contact_;
      } else {
        schedule_join_retry();
        return;
      }
    }
    auto req = std::make_unique<overlay::JoinRequest>();
    req->spec = spec_;
    send(*contact, std::move(req));
    arm_join_watchdog();
  });
}

void PeerNode::on_join_accept(util::PeerId from, const overlay::JoinAccept& m) {
  if (joined_) return;
  set_membership(alive_, true);
  redirect_hops_ = 0;
  join_attempts_ = 0;
  domain_ = m.domain;
  my_rm_ = m.rm.valid() ? m.rm : from;
  epoch_ = m.epoch;
  last_rm_heartbeat_ = system_.simulator().now();
  conns_.open(my_rm_, overlay::ConnectionPurpose::Control);
  announce_to_rm();
  if (!report_timer_.active()) {
    report_timer_ = system_.simulator().every(
        system_.config().report_period, [this] { report_tick(); });
  }
  if (!membership_timer_.active()) {
    membership_timer_ = system_.simulator().every(
        system_.config().heartbeat_period, [this] { membership_check_tick(); });
  }
  system_.trace(TraceKind::PeerJoined, spec_.id, util::TaskId::invalid(),
                domain_);
  P2PRM_LOG(Debug, kLog, system_.simulator().now_seconds())
      << "peer " << spec_.id << " joined domain " << domain_ << " under RM "
      << my_rm_;
}

void PeerNode::on_join_promote(const overlay::JoinPromote& m) {
  if (joined_) return;
  become_rm(m.new_domain, m.known_rms, /*epoch=*/1, std::nullopt);
  // Introduce ourselves to the RMs we were told about.
  for (const auto& info : m.known_rms) {
    auto intro = std::make_unique<overlay::RmPeerIntro>();
    intro->rms.push_back(
        overlay::RmInfo{domain_, spec_.id});
    send(info.rm, std::move(intro));
  }
}

void PeerNode::announce_to_rm() {
  auto announce = std::make_unique<PeerAnnounce>();
  announce->spec = spec_;
  announce->objects = inventory_.objects;
  announce->services = inventory_.services;
  send(my_rm_, std::move(announce));
}

void PeerNode::on_rm_heartbeat(util::PeerId from, const overlay::RmHeartbeat& m) {
  if (!joined_) {
    // Heartbeats retry what a lost RmTakeover announced once: a dropped-out
    // member of this domain gets re-adopted on the next beat.
    try_readopt(from, m.domain, m.epoch);
    return;
  }
  if (rm_) {
    // Split-brain resolution: a heartbeat for our own domain with a higher
    // epoch means a backup took over while we were partitioned away (the
    // members already follow it). Abdicate and fall in line.
    if (m.domain == domain_ && from != spec_.id &&
        m.epoch > rm_->info().domain().epoch()) {
      abdicate(from, m.epoch);
    }
    return;
  }
  if (m.epoch < epoch_) return;  // stale RM
  epoch_ = m.epoch;
  domain_ = m.domain;
  my_rm_ = from;
  last_rm_heartbeat_ = system_.simulator().now();
  designated_backup_ = m.backup;
  if (m.backup != spec_.id) {
    backup_copy_.reset();
    backup_known_rms_.clear();
  }
  if (m.report_period > 0 && m.report_period != report_period_) {
    // §4.4 adaptive feedback: re-arm the profiler report timer at the
    // period the RM derived from the current QoS requirements.
    report_period_ = m.report_period;
    report_timer_.cancel();
    report_timer_ =
        system_.simulator().every(report_period_, [this] { report_tick(); });
  }
}

void PeerNode::abdicate(util::PeerId new_rm, std::uint64_t new_epoch) {
  system_.trace(TraceKind::RmDemoted, spec_.id, util::TaskId::invalid(),
                domain_, {{"successor", util::to_string(new_rm)}});
  P2PRM_LOG(Info, kLog, system_.simulator().now_seconds())
      << "peer " << spec_.id << " abdicates RM of domain " << domain_
      << " to " << new_rm << " (epoch " << new_epoch << ")";
  rm_->stop();
  rm_.reset();
  my_rm_ = new_rm;
  epoch_ = new_epoch;
  last_rm_heartbeat_ = system_.simulator().now();
  conns_.open(my_rm_, overlay::ConnectionPurpose::Control);
  // The takeover RM restored our inventory from the snapshot; re-announce
  // anyway (idempotent) in case it was founded fresh.
  announce_to_rm();
  if (!membership_timer_.active()) {
    membership_timer_ = system_.simulator().every(
        system_.config().heartbeat_period, [this] { membership_check_tick(); });
  }
}

void PeerNode::demote_and_rejoin() {
  if (!rm_) return;
  system_.trace(TraceKind::RmDemoted, spec_.id, util::TaskId::invalid(),
                domain_, {{"reason", "lost all members"}});
  P2PRM_LOG(Info, kLog, system_.simulator().now_seconds())
      << "peer " << spec_.id << " demotes itself (domain " << domain_
      << " lost all members) and rejoins";
  rm_->stop();
  rm_.reset();
  rejoin();
}

bool PeerNode::try_readopt(util::PeerId from, util::DomainId domain,
                           std::uint64_t epoch) {
  // A member that gave up on a silent dead RM (rejoin()) may hear the
  // takeover only after it dropped out — the backup's detection and our
  // own rejoin threshold race, and under CPU contention or frame loss the
  // announcement can arrive arbitrarily late. Re-adopt instead of
  // ignoring: our rejoin JoinRequest went to a possibly-dead bootstrap
  // contact, so the new RM's takeover/heartbeat traffic can be the only
  // live endpoint we ever hear from again.
  P2PRM_LOG(Trace, kLog, system_.simulator().now_seconds())
      << "peer " << spec_.id << " readopt offer from " << from << " (domain "
      << domain << " epoch " << epoch << "; mine " << domain_ << " epoch "
      << epoch_ << " joined=" << joined_ << ")";
  if (alive_ == false || joined_ || rm_) return false;
  if (domain != domain_ || epoch < epoch_) return false;
  set_membership(alive_, true);
  redirect_hops_ = 0;
  join_attempts_ = 0;
  ++join_watchdog_token_;  // disarm any pending join watchdog
  epoch_ = epoch;
  my_rm_ = from;
  last_rm_heartbeat_ = system_.simulator().now();
  conns_.open(my_rm_, overlay::ConnectionPurpose::Control);
  announce_to_rm();
  P2PRM_LOG(Debug, kLog, system_.simulator().now_seconds())
      << "peer " << spec_.id << " re-adopted into domain " << domain_
      << " by RM " << from << " (epoch " << epoch << ")";
  return true;
}

void PeerNode::on_rm_takeover(util::PeerId from, const overlay::RmTakeover& m) {
  if (!joined_) {
    try_readopt(from, m.domain, m.epoch);
    return;
  }
  if (rm_) {
    if (m.domain == domain_ && from != spec_.id &&
        m.epoch > rm_->info().domain().epoch()) {
      abdicate(from, m.epoch);
    }
    return;
  }
  if (m.epoch < epoch_) return;
  epoch_ = m.epoch;
  domain_ = m.domain;
  my_rm_ = from;
  last_rm_heartbeat_ = system_.simulator().now();
  // The takeover RM restored the old info base; our inventory is in it.
}

void PeerNode::on_backup_sync(const BackupSync& m, util::PeerId from) {
  if (!joined_ || rm_ || from != my_rm_) return;
  backup_copy_ = m.snapshot;
  backup_known_rms_ = m.known_rms;
  P2PRM_LOG(Trace, kLog, system_.simulator().now_seconds())
      << "backup " << spec_.id << " accepted sync seq " << m.seq << " ("
      << m.snapshot.domain.size() << " members)";
  if (system_.config().ack_backup_sync && m.seq != 0) {
    auto ack = std::make_unique<BackupSyncAck>();
    ack->seq = m.seq;
    send(from, std::move(ack));
  }
}

void PeerNode::membership_check_tick() {
  if (!joined_ || rm_) return;
  const util::SimTime now = system_.simulator().now();
  const util::SimDuration silence = now - last_rm_heartbeat_;
  const auto timeout = system_.config().rm_failure_timeout;
  if (silence <= timeout) return;

  if (system_.config().enable_backup_rm && designated_backup_ == spec_.id &&
      backup_copy_.has_value()) {
    // "The backup Resource Manager senses the withdrawn connection. It then
    // takes over as a Resource Manager, using its backup copy." (§4.1)
    const util::PeerId dead_rm = my_rm_;
    const std::uint64_t new_epoch = epoch_ + 1;
    InfoBaseSnapshot snapshot = std::move(*backup_copy_);
    backup_copy_.reset();
    const auto members = snapshot.domain.member_ids();
    become_rm(domain_, backup_known_rms_, new_epoch, std::move(snapshot));
    rm_->info().domain().set_epoch(new_epoch);
    // Absorb the dead RM's departure (removes its services, repairs tasks).
    rm_->handle(dead_rm, overlay::LeaveNotice{});
    for (const auto member : members) {
      if (member == spec_.id || member == dead_rm) continue;
      auto takeover = std::make_unique<overlay::RmTakeover>();
      takeover->domain = domain_;
      takeover->epoch = new_epoch;
      send(member, std::move(takeover));
    }
    for (const auto& info : backup_known_rms_) {
      auto intro = std::make_unique<overlay::RmPeerIntro>();
      intro->rms.push_back(overlay::RmInfo{domain_, spec_.id});
      send(info.rm, std::move(intro));
    }
    P2PRM_LOG(Info, kLog, system_.simulator().now_seconds())
        << "backup " << spec_.id << " took over domain " << domain_
        << " after RM " << dead_rm << " failed (" << members.size()
        << " members in snapshot)";
    return;
  }

  if (silence > 2 * timeout) rejoin();
}

void PeerNode::rejoin() {
  ++stats_.rejoin_attempts;
  set_membership(alive_, false);
  my_rm_ = util::PeerId::invalid();
  backup_copy_.reset();
  conns_.drop_everything();
  const auto contact = system_.random_alive_peer(spec_.id);
  if (!contact) {
    schedule_join_retry();
    return;
  }
  auto req = std::make_unique<overlay::JoinRequest>();
  req->spec = spec_;
  send(*contact, std::move(req));
  arm_join_watchdog();
  P2PRM_LOG(Debug, kLog, system_.simulator().now_seconds())
      << "peer " << spec_.id << " rejoining via " << *contact;
}

// ---------------------------------------------------------------------------
// User API

void PeerNode::submit_request(util::TaskId task, QoSRequirements q) {
  last_activity_ = system_.simulator().now();
  auto query = std::make_unique<TaskQuery>();
  query->task = task;
  query->origin = spec_.id;
  query->q = std::move(q);
  query->submitted_at = system_.simulator().now();
  const TaskQuery original = *query;
  send(my_rm_, std::move(query));

  // Watch the allocation RPC: resend (to whatever RM we know *now* — it may
  // have failed over) until accepted, rejected or exhausted. The RM side
  // deduplicates retried queries, so a slow answer plus a retry is safe.
  const util::BackoffPolicy& policy = system_.config().retry.task_query;
  if (policy.max_attempts <= 1) return;
  sim::RetryOp& op = query_retries_[task];
  op.arm(
      system_.simulator(), policy, &system_.simulator().rng(),
      [this, original](int /*attempt*/) {
        if (!alive_ || !joined_ || !my_rm_.valid()) return;
        send(my_rm_, std::make_unique<TaskQuery>(original));
      },
      [this, task] {
        // No answer within the whole retry budget: the ledger records a
        // reject unless a (late) terminal outcome already landed.
        query_retries_.erase(task);
        system_.ledger().on_rejected(task, "rpc-timeout");
        system_.trace(TraceKind::TaskRejected, spec_.id, task,
                      util::DomainId::invalid(), {{"reason", "rpc-timeout"}});
      },
      &stats_.query_retry);
}

void PeerNode::request_qos_update(util::TaskId task,
                                  util::SimDuration new_deadline) {
  auto update = std::make_unique<TaskQosUpdate>();
  update->task = task;
  update->new_deadline = new_deadline;
  send(my_rm_, std::move(update));
}

// ---------------------------------------------------------------------------
// Session execution (Fig. 2 step C)

void PeerNode::close_session_connections(const HopSession& session) {
  conns_.close(session.spec.prev_peer, overlay::ConnectionPurpose::Streaming);
  conns_.close(session.spec.next_peer, overlay::ConnectionPurpose::Streaming);
}

void PeerNode::on_graph_compose(const GraphCompose& m) {
  const SessionKey key{m.hop.task, m.hop.hop_index};
  HopSession session;
  session.spec = m.hop;
  session.token = ++session_tokens_;
  // "Graph composition messages are sent to the nodes ... allowing them to
  // establish the appropriate connections." (§4.3)
  conns_.open(m.hop.prev_peer, overlay::ConnectionPurpose::Streaming);
  conns_.open(m.hop.next_peer, overlay::ConnectionPurpose::Streaming);
  const auto existing = sessions_.find(key);
  if (existing != sessions_.end()) {
    // Superseded by a re-composition: release the old session's links.
    close_session_connections(existing->second);
  }
  sessions_[key] = session;

  // Self-expiry: if the data never arrives (the upstream stage died or the
  // task was torn down and the HopCancel raced past us), reap the session
  // so it cannot leak. Anchored to the task deadline plus the same grace
  // the RM uses for task GC.
  const std::uint64_t token = session.token;
  const util::SimTime expiry = std::max(
      m.hop.absolute_deadline + system_.config().task_gc_grace,
      system_.simulator().now() + system_.config().task_gc_grace);
  defer_at(expiry, [this, key, token] {
    const auto it = sessions_.find(key);
    if (it == sessions_.end() || it->second.token != token) return;
    if (it->second.job_submitted) return;  // running; completion cleans up
    close_session_connections(it->second);
    sessions_.erase(it);
  });

  // Data that outran the composition message.
  const auto early = early_data_.find(key);
  if (early != early_data_.end()) {
    StreamData data = early->second.first;
    early_data_.erase(early);
    on_stream_data(data);
  }
}

void PeerNode::on_source_start(const SourceStart& m) {
  // We are the source: push the object into the pipeline (or straight to
  // the requesting peer when no transcoding is needed).
  auto data = std::make_unique<StreamData>();
  data->task = m.task;
  data->dest_hop_index = 0;
  data->for_sink = m.first_is_sink;
  data->object = m.object;
  data->format = m.format;
  data->media_seconds = m.media_seconds;
  data->pipeline_started_at = system_.simulator().now();
  data->sent_at = system_.simulator().now();
  ++stats_.streams_forwarded;
  send(m.first_hop, std::move(data));
}

void PeerNode::on_stream_data(const StreamData& m) {
  if (m.for_sink) {
    deliver_to_user(m);
    return;
  }
  const SessionKey key{m.task, m.dest_hop_index};
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    // Compose message still in flight — buffer, with self-expiry in case it
    // never arrives (the task was torn down between the upstream send and
    // our composition).
    const std::uint64_t token = ++session_tokens_;
    early_data_[key] = {m, token};
    defer_after(
        system_.config().task_gc_grace, [this, key, token] {
          const auto e = early_data_.find(key);
          if (e != early_data_.end() && e->second.second == token) {
            early_data_.erase(e);
          }
        });
    return;
  }
  HopSession& session = it->second;
  if (session.job_submitted) return;  // duplicate
  session.data_arrived_at = system_.simulator().now();
  session.pipeline_started_at = m.pipeline_started_at;

  sched::Job job;
  job.id = system_.next_job_id();
  job.task = m.task;
  job.release = system_.simulator().now();
  job.absolute_deadline = session.spec.absolute_deadline;
  job.importance = session.spec.importance;
  job.total_ops = media::transcode_ops_per_media_second(
                      session.spec.type, system_.config().cost_model) *
                  session.spec.media_seconds;
  job.remaining_ops = job.total_ops;
  session.job = job.id;
  session.job_submitted = true;
  job_index_[job.id] = key;
  processor_->submit(job);
  if (system_.config().enable_spans) {
    system_.trace(TraceKind::HopStarted, spec_.id, session.spec.task,
                  util::DomainId::invalid(),
                  {{"hop", session.spec.hop_index},
                   {"service", session.spec.type.type_key()}});
  }
}

void PeerNode::on_job_finished(const sched::Job& job, sched::JobStatus status) {
  last_activity_ = system_.simulator().now();
  const auto idx = job_index_.find(job.id);
  if (idx == job_index_.end()) return;
  const SessionKey key = idx->second;
  job_index_.erase(idx);
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) return;
  HopSession session = it->second;
  sessions_.erase(it);
  close_session_connections(session);

  if (status == sched::JobStatus::Dropped) {
    // drop_hopeless_jobs mode: the deadline became unreachable; tell the RM
    // so it can fail or re-plan the task.
    auto failed = std::make_unique<HopFailed>();
    failed->task = session.spec.task;
    failed->hop_index = session.spec.hop_index;
    failed->reason = "hop-dropped";
    send(session.spec.rm, std::move(failed));
    return;
  }

  ++stats_.hops_executed;
  if (system_.config().enable_spans) {
    system_.trace(TraceKind::HopCompleted, spec_.id, session.spec.task,
                  util::DomainId::invalid(),
                  {{"hop", session.spec.hop_index},
                   {"service", session.spec.type.type_key()},
                   {"exec_s", util::to_seconds(job.completed - job.release)},
                   {"late", status == sched::JobStatus::CompletedLate ? 1 : 0}});
  }
  profiler_.record_execution(session.spec.type.type_key(),
                             job.completed - job.release);
  forward_hop_output(session);

  auto done = std::make_unique<HopDone>();
  done->task = session.spec.task;
  done->hop_index = session.spec.hop_index;
  done->execution_time = job.completed - job.release;
  done->missed_local_deadline = status == sched::JobStatus::CompletedLate;
  send(session.spec.rm, std::move(done));
}

void PeerNode::forward_hop_output(const HopSession& session) {
  auto data = std::make_unique<StreamData>();
  data->task = session.spec.task;
  data->dest_hop_index = session.spec.hop_index + 1;
  data->for_sink = session.spec.next_is_sink;
  data->object = session.spec.object;
  data->format = session.spec.type.output;
  data->media_seconds = session.spec.media_seconds;
  data->pipeline_started_at = session.pipeline_started_at;
  data->sent_at = system_.simulator().now();
  ++stats_.streams_forwarded;
  send(session.spec.next_peer, std::move(data));
}

void PeerNode::settle_task_query(util::TaskId task) {
  const auto it = query_retries_.find(task);
  if (it == query_retries_.end()) return;
  it->second.ack();
  query_retries_.erase(it);
}

void PeerNode::deliver_to_user(const StreamData& m) {
  settle_task_query(m.task);
  const util::SimTime now = system_.simulator().now();
  const TaskRecord* record = system_.ledger().record(m.task);
  bool missed = false;
  if (record != nullptr) {
    missed = now > record->submitted + record->deadline;
  }
  system_.ledger().on_completed(m.task, now, missed);
  system_.trace(TraceKind::TaskCompleted, spec_.id, m.task,
                util::DomainId::invalid(),
                {{"outcome", missed ? "missed" : "on-time"}});
  if (joined_ && my_rm_.valid()) {
    auto done = std::make_unique<TaskCompleted>();
    done->task = m.task;
    done->completed_at = now;
    done->missed_deadline = missed;
    send(my_rm_, std::move(done));
  }
}

void PeerNode::on_hop_cancel(const HopCancel& m) {
  const SessionKey key{m.task, m.hop_index};
  early_data_.erase(key);
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) return;
  HopSession session = it->second;
  sessions_.erase(it);
  if (session.job_submitted) {
    processor_->cancel(session.job);
    job_index_.erase(session.job);
  }
  close_session_connections(session);
  ++stats_.hops_cancelled;
}

// ---------------------------------------------------------------------------
// Profiler feedback (§4.4 intra-domain propagation)

void PeerNode::report_tick() {
  if (!joined_ || !my_rm_.valid()) return;
  const auto sample = profiler_.sample(
      system_.simulator().now(), processor_->busy_time(), stats_.bytes_sent,
      processor_->queue_length(), processor_->backlog_seconds());
  auto report = std::make_unique<ProfilerReport>();
  report->sample = sample;
  report->eligible_rm = overlay::qualifies_for_rm(
      spec_, system_.simulator().now(), system_.config().qualification);
  report->rm_score = overlay::rm_score(spec_, system_.simulator().now(),
                                       system_.config().qualification);
  report->active_hops = sessions_.size();
  for (const auto& [key, stats] : profiler_.execution_records()) {
    if (stats.count() > 0) {
      report->measured_exec_s.emplace_back(key, stats.mean());
    }
  }
  report->seq = ++report_seq_;
  if (system_.config().ack_profiler_reports) pending_report_ = *report;
  send(my_rm_, std::move(report));

  // Resend until the RM acks this seq; the next tick supersedes (cancels)
  // any still-armed retry — a report is only worth repeating while fresh.
  const util::BackoffPolicy& policy = system_.config().retry.profiler_report;
  if (!system_.config().ack_profiler_reports || policy.max_attempts <= 1) {
    return;
  }
  report_retry_op_.cancel();
  report_retry_op_.arm(
      system_.simulator(), policy, &system_.simulator().rng(),
      [this](int /*attempt*/) {
        if (!alive_ || !joined_ || !my_rm_.valid()) return;
        send(my_rm_, std::make_unique<ProfilerReport>(pending_report_));
      },
      /*on_exhausted=*/{}, &stats_.report_retry);
}

void PeerNode::publish(obs::MetricsRegistry& registry) const {
  const obs::Labels labels{{"peer", util::to_string(spec_.id)}};
  const auto c = [&](std::string_view name, std::uint64_t v) {
    registry.counter(name, labels).set(v);
  };
  c("peer.hops_executed", stats_.hops_executed);
  c("peer.hops_cancelled", stats_.hops_cancelled);
  c("peer.streams_forwarded", stats_.streams_forwarded);
  c("peer.rejoin_attempts", stats_.rejoin_attempts);
  c("peer.bytes_sent", stats_.bytes_sent);
  c("peer.join_retries", stats_.join_retries);
  sim::publish_retry_stats(stats_.query_retry, registry, "peer.query",
                           labels);
  sim::publish_retry_stats(stats_.report_retry, registry, "peer.report",
                           labels);
  registry.gauge("peer.active_sessions", labels)
      .set(static_cast<double>(sessions_.size()));
  if (processor_) processor_->publish(registry, labels);
  if (rm_) rm_->publish(registry);
}

}  // namespace p2prm::core
