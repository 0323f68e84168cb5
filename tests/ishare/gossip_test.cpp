// GossipAgent / GossipMesh unit battery (DESIGN.md §11): the merge
// semilattice (higher (incarnation, heartbeat) wins, worse health on exact
// ties, generation max-merged), SWIM-style self-refutation, phi accrual
// thresholds on the round clock, leave/rejoin tombstones, and the
// determinism contract — two identically-seeded meshes replay to identical
// digests and convergence rounds. The storm-under-failpoints coverage lives
// in tests/chaos/gossip_chaos_test.cpp.
#include "ishare/gossip.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace fgcs {
namespace {

MemberState member(const std::string& id, std::uint64_t incarnation,
                   std::uint64_t heartbeat,
                   MemberHealth health = MemberHealth::kAlive,
                   std::uint64_t generation = 0) {
  MemberState state;
  state.node_id = id;
  state.port = 9000;
  state.incarnation = incarnation;
  state.heartbeat = heartbeat;
  state.health = health;
  state.generation = generation;
  return state;
}

GossipMessage sync_of(const std::string& sender,
                      std::vector<MemberState> members) {
  GossipMessage message;
  message.sender = sender;
  message.members = std::move(members);
  return message;
}

/// By value: members() returns a temporary vector.
MemberState record(const GossipAgent& agent, const std::string& id) {
  for (const MemberState& m : agent.members())
    if (m.node_id == id) return m;
  ADD_FAILURE() << "no record for " << id;
  return {};
}

TEST(GossipAgentTest, HigherIncarnationWinsRegardlessOfHeartbeat) {
  GossipAgent agent(member("a", 0, 0));
  agent.handle_sync(sync_of("b", {member("x", 1, 100)}));
  // Older incarnation at a huge heartbeat must lose.
  agent.handle_sync(sync_of("b", {member("x", 0, 999999)}));
  EXPECT_EQ(record(agent, "x").incarnation, 1u);
  EXPECT_EQ(record(agent, "x").heartbeat, 100u);
  // Newer incarnation at a tiny heartbeat must win.
  agent.handle_sync(sync_of("b", {member("x", 2, 1)}));
  EXPECT_EQ(record(agent, "x").incarnation, 2u);
  EXPECT_EQ(record(agent, "x").heartbeat, 1u);
}

TEST(GossipAgentTest, ExactTieWorseHealthWins) {
  GossipAgent agent(member("a", 0, 0));
  agent.handle_sync(sync_of("b", {member("x", 3, 7, MemberHealth::kAlive)}));
  // Same (incarnation, heartbeat): a dead accusation sticks...
  agent.handle_sync(sync_of("b", {member("x", 3, 7, MemberHealth::kDead)}));
  EXPECT_EQ(record(agent, "x").health, MemberHealth::kDead);
  // ...and an alive record at the same coordinates cannot scrub it back.
  agent.handle_sync(sync_of("b", {member("x", 3, 7, MemberHealth::kAlive)}));
  EXPECT_EQ(record(agent, "x").health, MemberHealth::kDead);
  // Proof of life — an advanced heartbeat — resurrects.
  agent.handle_sync(sync_of("b", {member("x", 3, 8, MemberHealth::kAlive)}));
  EXPECT_EQ(record(agent, "x").health, MemberHealth::kAlive);
}

TEST(GossipAgentTest, MergeIsOrderIndependent) {
  // The semilattice property gossip convergence rests on: any delivery
  // order joins to the same table. Digest excludes heartbeats, so compare
  // full records too.
  const GossipMessage m1 = sync_of(
      "p", {member("x", 1, 5, MemberHealth::kSuspect, 2), member("y", 0, 9)});
  const GossipMessage m2 = sync_of(
      "q", {member("x", 1, 5, MemberHealth::kDead, 1), member("y", 0, 3)});
  GossipAgent forward(member("a", 0, 0));
  forward.handle_sync(m1);
  forward.handle_sync(m2);
  GossipAgent reversed(member("a", 0, 0));
  reversed.handle_sync(m2);
  reversed.handle_sync(m1);
  EXPECT_EQ(forward.digest(), reversed.digest());
  EXPECT_EQ(forward.members(), reversed.members());
  EXPECT_EQ(record(forward, "x").health, MemberHealth::kDead);
  EXPECT_EQ(record(forward, "y").heartbeat, 9u);
}

TEST(GossipAgentTest, GenerationMaxMergesIndependentlyOfLiveness) {
  GossipAgent agent(member("a", 0, 0));
  agent.handle_sync(sync_of("b", {member("x", 2, 10, MemberHealth::kAlive,
                                         /*generation=*/7)}));
  // A losing record (older incarnation) still raises the generation: the
  // history announcement and the liveness fields merge independently.
  agent.handle_sync(sync_of("b", {member("x", 1, 99, MemberHealth::kAlive,
                                         /*generation=*/9)}));
  EXPECT_EQ(record(agent, "x").incarnation, 2u);
  EXPECT_EQ(record(agent, "x").generation, 9u);
}

TEST(GossipAgentTest, RefutesDeadAccusationWithFreshIncarnation) {
  GossipAgent agent(member("a", 0, 0));
  agent.tick();  // heartbeat -> 1
  const MemberState self = agent.self();
  // An accusation at our exact (incarnation, heartbeat) would win the merge
  // tie — the agent must answer with a fresh incarnation instead.
  agent.handle_sync(sync_of("b", {member("a", self.incarnation, self.heartbeat,
                                         MemberHealth::kDead)}));
  EXPECT_EQ(agent.self().health, MemberHealth::kAlive);
  EXPECT_EQ(agent.self().incarnation, self.incarnation + 1);
  EXPECT_EQ(agent.stats().refutations, 1u);
}

TEST(GossipAgentTest, LeftTombstoneIsNotRefuted) {
  GossipAgent agent(member("a", 0, 0));
  agent.leave();
  const MemberState self = agent.self();
  agent.handle_sync(sync_of("b", {member("a", self.incarnation, self.heartbeat,
                                         MemberHealth::kDead)}));
  // A node that really left lets accusations stand; no incarnation bump.
  EXPECT_EQ(agent.self().health, MemberHealth::kLeft);
  EXPECT_EQ(agent.self().incarnation, self.incarnation);
  EXPECT_EQ(agent.stats().refutations, 0u);
}

TEST(GossipAgentTest, PhiSuspectsThenDeclaresDeadOnTheRoundClock) {
  // Default thresholds: suspect_phi 4, dead_phi 10, mean interval floors at
  // 1 round. A peer whose heartbeat never advances crosses suspect exactly
  // at round 4 and dead exactly at round 10.
  GossipAgent agent(member("a", 0, 0));
  agent.seed_peer(member("b", 0, 0));
  for (int round = 1; round <= 3; ++round) agent.tick();
  EXPECT_EQ(record(agent, "b").health, MemberHealth::kAlive);
  agent.tick();  // round 4
  EXPECT_EQ(record(agent, "b").health, MemberHealth::kSuspect);
  EXPECT_TRUE(agent.ring().contains("b")) << "suspect members stay routed";
  for (int round = 5; round <= 9; ++round) agent.tick();
  EXPECT_EQ(record(agent, "b").health, MemberHealth::kSuspect);
  agent.tick();  // round 10
  EXPECT_EQ(record(agent, "b").health, MemberHealth::kDead);
  EXPECT_FALSE(agent.ring().contains("b")) << "dead members leave the ring";
  EXPECT_EQ(agent.stats().suspicions, 1u);
  EXPECT_EQ(agent.stats().deaths, 1u);
}

TEST(GossipAgentTest, RejoinBeatsTheTombstone) {
  GossipAgent accuser(member("a", 0, 0));
  accuser.seed_peer(member("b", 0, 0));
  for (int round = 0; round < 10; ++round) accuser.tick();
  ASSERT_EQ(record(accuser, "b").health, MemberHealth::kDead);

  GossipAgent returned(member("b", 0, 0));
  returned.rejoin();  // fresh incarnation
  accuser.handle_sync(returned.make_sync());
  EXPECT_EQ(record(accuser, "b").health, MemberHealth::kAlive);
  EXPECT_TRUE(accuser.ring().contains("b"));
}

TEST(GossipAgentTest, AnnouncedGenerationPropagates) {
  GossipAgent a(member("a", 0, 0));
  GossipAgent b(member("b", 0, 0));
  a.seed_peer(b.self());
  b.announce_generation(41);
  b.announce_generation(17);  // max-merge: lower announcements are no-ops
  EXPECT_EQ(b.self().generation, 41u);
  a.handle_sync(b.make_sync());
  EXPECT_EQ(record(a, "b").generation, 41u);
}

TEST(GossipAgentTest, SeedPeerIgnoresSelfAndKnownIds) {
  GossipAgent agent(member("a", 0, 0));
  agent.seed_peer(member("a", 5, 5));  // self: ignored
  EXPECT_EQ(agent.self().incarnation, 0u);
  agent.seed_peer(member("b", 0, 0));
  agent.seed_peer(member("b", 9, 9));  // already known: ignored
  EXPECT_EQ(record(agent, "b").incarnation, 0u);
  EXPECT_EQ(agent.members().size(), 2u);
}

TEST(GossipMeshTest, BootstrapConvergesAndRingsAgree) {
  GossipMesh mesh;
  for (const char* id : {"n0", "n1", "n2", "n3"}) mesh.add_node(id);
  mesh.connect_all();
  const int rounds = mesh.run_until_converged(64);
  ASSERT_GE(rounds, 0) << "4-node bootstrap did not converge in 64 rounds";
  const HashRing ring = mesh.agent("n0").ring();
  EXPECT_EQ(ring.size(), 4u);
  for (const char* id : {"n1", "n2", "n3"}) {
    EXPECT_EQ(mesh.agent(id).ring().digest(), ring.digest());
    EXPECT_EQ(mesh.agent(id).digest(), mesh.agent("n0").digest());
  }
}

TEST(GossipMeshTest, IdenticallySeededMeshesReplayIdentically) {
  const auto storm = [](std::uint64_t seed) {
    GossipConfig config;
    config.seed = seed;
    GossipMesh mesh(config);
    for (const char* id : {"n0", "n1", "n2"}) mesh.add_node(id);
    mesh.connect_all();
    mesh.run_until_converged(64);
    mesh.partition({{"n0"}, {"n1", "n2"}});
    for (int r = 0; r < 6; ++r) mesh.run_round();
    mesh.heal();
    const int rounds = mesh.run_until_converged(128);
    return std::pair<int, std::uint64_t>(rounds, mesh.digest());
  };
  const auto first = storm(77);
  const auto second = storm(77);
  ASSERT_GE(first.first, 0);
  EXPECT_EQ(first, second);
  // A different seed reorders peer selection; the storm still converges.
  EXPECT_GE(storm(78).first, 0);
}

TEST(GossipMeshTest, PartitionHealsToOneView) {
  GossipMesh mesh;
  for (const char* id : {"n0", "n1", "n2"}) mesh.add_node(id);
  mesh.connect_all();
  ASSERT_GE(mesh.run_until_converged(64), 0);

  mesh.partition({{"n0"}, {"n1", "n2"}});
  for (int r = 0; r < 6; ++r) mesh.run_round();
  mesh.heal();
  ASSERT_GE(mesh.run_until_converged(128), 0);
  // A short split leaves at most suspicions, refuted or aged out by the
  // heal; the converged member set is the same three nodes.
  EXPECT_EQ(mesh.agent("n0").ring().size(), 3u);
}

TEST(GossipMeshTest, CrashIsDeclaredDeadAndRestartResurrects) {
  GossipMesh mesh;
  for (const char* id : {"n0", "n1", "n2"}) mesh.add_node(id);
  mesh.connect_all();
  ASSERT_GE(mesh.run_until_converged(64), 0);

  mesh.stop("n1");
  for (int r = 0; r < 24; ++r) mesh.run_round();
  EXPECT_EQ(record(mesh.agent("n0"), "n1").health, MemberHealth::kDead);
  EXPECT_FALSE(mesh.agent("n0").ring().contains("n1"));

  mesh.restart("n1");
  ASSERT_GE(mesh.run_until_converged(128), 0) << "restart never re-converged";
  EXPECT_EQ(record(mesh.agent("n0"), "n1").health, MemberHealth::kAlive);
  EXPECT_EQ(mesh.agent("n0").ring().size(), 3u);
}

TEST(GossipMeshTest, GracefulLeaveShrinksEveryRing) {
  GossipMesh mesh;
  for (const char* id : {"n0", "n1", "n2"}) mesh.add_node(id);
  mesh.connect_all();
  ASSERT_GE(mesh.run_until_converged(64), 0);

  mesh.agent("n2").leave();
  ASSERT_GE(mesh.run_until_converged(128), 0);
  for (const char* id : {"n0", "n1"}) {
    EXPECT_EQ(record(mesh.agent(id), "n2").health, MemberHealth::kLeft);
    EXPECT_FALSE(mesh.agent(id).ring().contains("n2"));
    EXPECT_EQ(mesh.agent(id).ring().size(), 2u);
  }
}

}  // namespace
}  // namespace fgcs
