#include "core/peer_registry.hpp"

#include <cassert>

#include "core/peer_node.hpp"
#include "obs/metrics_registry.hpp"

namespace p2prm::core {

std::string_view peer_state_name(PeerState s) {
  switch (s) {
    case PeerState::Lazy: return "lazy";
    case PeerState::Live: return "live";
    case PeerState::Left: return "left";
    case PeerState::Crashed: return "crashed";
  }
  return "?";
}

PeerRegistry::PeerRegistry() = default;
PeerRegistry::~PeerRegistry() = default;

void PeerRegistry::reserve(std::size_t n) {
  id_.reserve(n);
  capacity_ops_.reserve(n);
  link_up_.reserve(n);
  link_down_.reserve(n);
  online_since_.reserve(n);
  x_.reserve(n);
  y_.reserve(n);
  state_.reserve(n);
  node_slot_.reserve(n);
  row_of_.reserve(n);
}

std::uint32_t PeerRegistry::add_row(const overlay::PeerSpec& spec,
                                    net::Coordinates at, PeerState state) {
  assert(spec.id.valid() && !contains(spec.id));
  const auto row = static_cast<std::uint32_t>(id_.size());
  id_.push_back(spec.id.value());
  capacity_ops_.push_back(spec.capacity_ops_per_s);
  link_up_.push_back(spec.link.uplink_bytes_per_s);
  link_down_.push_back(spec.link.downlink_bytes_per_s);
  online_since_.push_back(spec.online_since);
  x_.push_back(at.x);
  y_.push_back(at.y);
  state_.push_back(state);
  node_slot_.push_back(kNoSlot);
  row_of_.insert_or_assign(spec.id.value(), row);
  return row;
}

overlay::PeerSpec PeerRegistry::spec(std::uint32_t row) const {
  overlay::PeerSpec s;
  s.id = util::PeerId{id_[row]};
  s.capacity_ops_per_s = capacity_ops_[row];
  s.link.uplink_bytes_per_s = link_up_[row];
  s.link.downlink_bytes_per_s = link_down_[row];
  s.online_since = online_since_[row];
  return s;
}

PeerNode* PeerRegistry::attach_node(std::uint32_t row,
                                    std::unique_ptr<PeerNode> node) {
  assert(node_slot_[row] == kNoSlot);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    nodes_[slot] = std::move(node);
    slot_row_[slot] = row;
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(std::move(node));
    slot_row_.push_back(row);
  }
  node_slot_[row] = slot;
  ++materialized_;
  return nodes_[slot].get();
}

std::unique_ptr<PeerNode> PeerRegistry::detach_node(std::uint32_t row) {
  const std::uint32_t slot = node_slot_[row];
  if (slot == kNoSlot) return nullptr;
  node_slot_[row] = kNoSlot;
  free_slots_.push_back(slot);
  --materialized_;
  return std::move(nodes_[slot]);
}

void PeerRegistry::stash_inventory(util::PeerId id, PeerInventory inventory) {
  if (inventory.objects.empty() && inventory.services.empty()) return;
  stashed_.insert_or_assign(
      id.value(), std::make_unique<PeerInventory>(std::move(inventory)));
}

PeerInventory PeerRegistry::take_inventory(util::PeerId id) {
  std::unique_ptr<PeerInventory>* stash = stashed_.find(id.value());
  if (stash == nullptr) return PeerInventory{};
  PeerInventory out = std::move(**stash);
  stashed_.erase(id.value());
  return out;
}

std::size_t PeerRegistry::footprint_bytes() const {
  std::size_t bytes = 0;
  bytes += id_.capacity() * sizeof(std::uint64_t);
  bytes += capacity_ops_.capacity() * sizeof(double);
  bytes += link_up_.capacity() * sizeof(double);
  bytes += link_down_.capacity() * sizeof(double);
  bytes += online_since_.capacity() * sizeof(util::SimTime);
  bytes += x_.capacity() * sizeof(double);
  bytes += y_.capacity() * sizeof(double);
  bytes += state_.capacity() * sizeof(PeerState);
  bytes += node_slot_.capacity() * sizeof(std::uint32_t);
  // The open-addressing table: key + value + used byte per bucket.
  bytes += row_of_.capacity() *
           (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 1);
  return bytes;
}

void PeerRegistry::publish(obs::MetricsRegistry& registry) const {
  std::size_t lazy = 0, left = 0, crashed = 0;
  for (const PeerState s : state_) {
    if (s == PeerState::Lazy) ++lazy;
    else if (s == PeerState::Left) ++left;
    else if (s == PeerState::Crashed) ++crashed;
  }
  registry.gauge("core.peers.total").set(static_cast<double>(id_.size()));
  registry.gauge("core.peers.materialized")
      .set(static_cast<double>(materialized_));
  registry.gauge("core.peers.lazy").set(static_cast<double>(lazy));
  registry.gauge("core.peers.left").set(static_cast<double>(left));
  registry.gauge("core.peers.crashed").set(static_cast<double>(crashed));
  registry.gauge("core.peers.idle_bytes_per_peer")
      .set(id_.empty() ? 0.0
                       : static_cast<double>(footprint_bytes()) /
                             static_cast<double>(id_.size()));
}

}  // namespace p2prm::core
