// Differential test of System's joined-peer index (docs/SCALING.md).
//
// random_alive_peer answers from an incrementally maintained, sorted list
// of alive and joined peers instead of walking the registry. This script
// drives every membership edge through the public API over a few hundred
// peers (eager joins, lazy rows, materialize/demote, crash/restart, leave,
// a membership-timeout rejoin and an RM step-down) and, after each step,
// compares the index with a full row scan and each pick with the pick the
// scan-and-sort reference makes from the same placement-rng draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/system.hpp"
#include "media/catalog.hpp"
#include "workload/heterogeneity.hpp"

namespace p2prm {
namespace {

using namespace core;
using namespace workload;

struct World {
  media::Catalog catalog = media::ladder_catalog();
  System system;
  util::Rng rng{321};
  ObjectPopulation population;
  PeerFactory factory;

  explicit World(SystemConfig config)
      : system(config),
        population(catalog, {}, system, rng),
        factory(make_peer_factory(catalog, population, {}, {}, system, rng)) {}
};

// Every row with a node that is alive and joined, by a row walk that does
// not go through for_each_node. Also checks that for_each_node visits
// exactly the rows that own a node.
std::vector<util::PeerId> scan_joined(const System& system) {
  const PeerRegistry& registry = system.peer_registry();
  std::vector<util::PeerId> joined;
  std::vector<std::uint32_t> with_node;
  registry.for_each_row([&](std::uint32_t row) {
    const PeerNode* node = registry.node(row);
    if (node == nullptr) return;
    with_node.push_back(row);
    if (node->alive() && node->joined()) joined.push_back(registry.id(row));
  });
  std::vector<std::uint32_t> visited;
  registry.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    EXPECT_EQ(&node, registry.node(row));
    visited.push_back(row);
  });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, with_node);
  EXPECT_EQ(visited.size(), registry.materialized());
  std::sort(joined.begin(), joined.end());
  return joined;
}

// The pre-index body of random_alive_peer: collect, sort, draw.
std::optional<util::PeerId> reference_pick(
    const std::vector<util::PeerId>& joined, util::PeerId exclude,
    util::Rng rng) {
  std::vector<util::PeerId> candidates;
  for (const auto id : joined) {
    if (id != exclude) candidates.push_back(id);
  }
  if (candidates.empty()) return std::nullopt;
  return candidates[rng.below(candidates.size())];
}

void expect_index_matches(System& system, const char* step) {
  SCOPED_TRACE(step);
  const auto joined = scan_joined(system);
  ASSERT_EQ(system.joined_peer_ids(), joined);
  ASSERT_FALSE(joined.empty());

  // An absent id: a registered row that is not alive and joined, when one
  // exists, else an id nobody holds.
  util::PeerId absent{0xfffffff0u};
  system.peer_registry().for_each_row([&](std::uint32_t row) {
    const util::PeerId id = system.peer_registry().id(row);
    if (!std::binary_search(joined.begin(), joined.end(), id)) absent = id;
  });
  const util::PeerId excludes[] = {util::PeerId::invalid(), joined.front(),
                                   joined[joined.size() / 2], joined.back(),
                                   absent};
  for (const util::PeerId exclude : excludes) {
    const auto expected =
        reference_pick(joined, exclude, system.placement_rng());
    EXPECT_EQ(system.random_alive_peer(exclude), expected)
        << "exclude " << exclude;
  }
}

// Runs `d` in half-second slices, checking the index after each one, so
// transitional states (joins and rejoins in flight) are compared too.
void run_checked(System& system, util::SimDuration d, const char* step) {
  const util::SimTime until = system.simulator().now() + d;
  while (system.simulator().now() < until) {
    system.run_until(std::min(until, system.simulator().now() +
                                         util::milliseconds(500)));
    expect_index_matches(system, step);
  }
}

std::vector<util::PeerId> members_of(System& system, util::DomainId domain,
                                     util::PeerId rm) {
  std::vector<util::PeerId> out;
  for (const auto id : system.alive_peer_ids()) {
    const PeerNode* node = system.peer(id);
    if (id != rm && node->joined() && node->domain() == domain) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(JoinedIndex, MatchesFullScanThroughEveryLifecycleEdge) {
  SystemConfig config;
  config.seed = 11;
  config.max_domain_size = 16;
  World world(config);
  System& system = world.system;

  // Eager peers join through the protocol.
  const auto eager = bootstrap_network(system, world.factory, 200);
  expect_index_matches(system, "eager bootstrap");

  // Lazy rows never enter the index.
  std::vector<util::PeerId> lazy;
  for (int i = 0; i < 300; ++i) {
    auto [spec, inventory] = world.factory();
    lazy.push_back(system.add_lazy_peer(spec, std::move(inventory)));
  }
  expect_index_matches(system, "lazy rows");

  // Materialize a stride of the lazy rows; they enter once joined.
  std::vector<util::PeerId> woken;
  for (std::size_t i = 0; i < lazy.size(); i += 6) {
    ASSERT_TRUE(system.materialize_peer(lazy[i]));
    woken.push_back(lazy[i]);
  }
  expect_index_matches(system, "materialize");
  run_checked(system, util::seconds(4), "materialized joins");

  // Demote them again: a graceful leave, then the node is destroyed.
  std::size_t demoted = 0;
  for (const auto id : woken) demoted += system.demote_peer(id) ? 1 : 0;
  EXPECT_GT(demoted, 0u);
  expect_index_matches(system, "demote");
  run_checked(system, util::seconds(2), "after demote");

  // Crash ordinary members, then restart half of them under the same id.
  std::vector<util::PeerId> crashed;
  for (std::size_t i = 3; i < eager.size() && crashed.size() < 12; i += 15) {
    const PeerNode* node = system.peer(eager[i]);
    if (node->alive() && node->resource_manager() == nullptr) {
      system.crash_peer(eager[i]);
      crashed.push_back(eager[i]);
    }
  }
  expect_index_matches(system, "crash");
  run_checked(system, util::seconds(3), "after crash");
  for (std::size_t i = 0; i < crashed.size(); i += 2) {
    ASSERT_TRUE(system.restart_peer(crashed[i]));
  }
  expect_index_matches(system, "restart");
  run_checked(system, util::seconds(4), "restarted joins");

  // Graceful leaves.
  for (std::size_t i = 7; i < eager.size(); i += 40) {
    system.leave_peer(eager[i]);
  }
  expect_index_matches(system, "leave");
  run_checked(system, util::seconds(2), "after leave");

  // RM step-down: every member of a domain crashes, its RM detects them
  // all as failed, demotes itself and rejoins elsewhere.
  {
    const auto domains = system.domains();
    ASSERT_GE(domains.size(), 3u);
    const auto d = domains.back();
    for (const auto id : members_of(system, d.domain, d.rm)) {
      system.crash_peer(id);
    }
    expect_index_matches(system, "domain wiped");
    run_checked(system, util::seconds(8), "rm step-down");
    const PeerNode* rm = system.peer(d.rm);
    ASSERT_TRUE(rm->alive());
    EXPECT_EQ(rm->resource_manager(), nullptr);
    EXPECT_GE(rm->stats().rejoin_attempts, 1u);
  }

  // Membership-timeout rejoin: kill an RM together with its designated
  // backup, so no takeover comes and the members' silence threshold fires.
  {
    const auto d = system.domains().front();
    const auto members = members_of(system, d.domain, d.rm);
    ASSERT_FALSE(members.empty());
    const util::PeerId backup =
        system.peer(members.front())->designated_backup();
    std::uint64_t rejoins_before = 0;
    for (const auto id : members) {
      rejoins_before += system.peer(id)->stats().rejoin_attempts;
    }
    system.crash_peer(d.rm);
    if (backup.valid()) system.crash_peer(backup);
    expect_index_matches(system, "rm and backup crash");
    run_checked(system, util::seconds(8), "membership-timeout rejoin");
    std::uint64_t rejoins_after = 0;
    for (const auto id : members) {
      rejoins_after += system.peer(id)->stats().rejoin_attempts;
    }
    EXPECT_GT(rejoins_after, rejoins_before);
  }
}

}  // namespace
}  // namespace p2prm
