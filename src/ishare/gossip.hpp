// Anti-entropy gossip membership for the decentralized registry
// (DESIGN.md §11).
//
// Every registry node runs a GossipAgent holding a full member table:
// (node_id, host, port, incarnation, heartbeat, health, generation). Each
// logical *round* the agent bumps its own heartbeat, re-evaluates liveness,
// and pushes its whole table to `fanout` seeded-randomly chosen peers
// (kGossipSync over the wire, docs/WIRE.md §7); the peer merges and
// answers its own table (kGossipAck), which the caller merges back.
//
// Merge rule — a join-semilattice, so any gossip order converges to the
// same table: per member, the record with the higher (incarnation,
// heartbeat) wins outright; at an exact tie the worse health wins
// (left > dead > suspect > alive — accusations and tombstones stick until
// the accused proves life by advancing its heartbeat or bumping its
// incarnation). `generation` — the node's history generation, announced so
// routers know when a shard's predictions moved — merges by max,
// independently of the liveness fields.
//
// Liveness is *phi-style accrual on the round clock*, not a fixed timeout:
// for each peer the agent tracks the mean number of rounds between observed
// heartbeat advances and computes phi = rounds_since_advance / mean. phi ≥
// suspect_phi marks the peer suspect (still routed to); phi ≥ dead_phi
// declares it dead (dropped from the ring, record kept as a tombstone). A
// node seeing itself accused at its own (incarnation, heartbeat) refutes by
// bumping its incarnation. leave() plants a kLeft tombstone that wins over
// every same-incarnation record — the graceful exit; rejoin() returns with
// a fresh incarnation.
//
// Determinism contract (the chaos battery's foundation): the agent never
// reads wall-clock time or thread identity. Rounds are the only clock, peer
// selection draws from an Rng seeded by (config.seed, node_id), and the
// digest excludes heartbeats (they keep advancing while tables sync), so a
// seed-pinned storm replays byte-identically and converged nodes compare
// digest-equal. GossipMesh wires N agents through an in-process transport
// with `gossip.drop` / `gossip.delay` failpoints and explicit partitions —
// the storm driver used by tests/chaos/gossip_chaos_test.cpp and
// `fgcs_chaos --scenario gossip`.
//
// Thread-safety: an agent is not thread-safe. The networked server guards
// its agent with a mutex (the reactor handles kGossipSync concurrently with
// the tick thread); the in-process mesh is single-threaded by construction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ishare/hash_ring.hpp"
#include "util/rng.hpp"

namespace fgcs {

enum class MemberHealth : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,  ///< phi crossed suspect_phi; still owns its shard
  kDead = 2,     ///< phi crossed dead_phi; evicted from the ring, tombstoned
  kLeft = 3,     ///< announced a graceful leave; wins over same-incarnation
};

const char* to_string(MemberHealth health);

/// One row of the gossiped member table.
struct MemberState {
  std::string node_id;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t incarnation = 0;
  std::uint64_t heartbeat = 0;
  MemberHealth health = MemberHealth::kAlive;
  /// History generation this node last announced (max-merged).
  std::uint64_t generation = 0;

  friend bool operator==(const MemberState&, const MemberState&) = default;
};

/// A full-state sync (or ack): the sender's whole member table, id-sorted.
struct GossipMessage {
  std::string sender;
  std::vector<MemberState> members;
};

struct GossipConfig {
  /// Peers pushed to per round.
  std::uint32_t fanout = 1;
  /// phi thresholds, in units of mean heartbeat-advance intervals (rounds).
  double suspect_phi = 4.0;
  double dead_phi = 10.0;
  /// Vnodes per member in ring() (HashRing contract).
  std::uint32_t vnodes = 128;
  /// Peer-selection seed; each agent forks its own stream from
  /// (seed, node_id), so mesh composition does not shift any agent's draws.
  std::uint64_t seed = 0x6055195eedull;
};

/// Monotonic per-agent counters (single-threaded, like the agent).
struct GossipAgentStats {
  std::uint64_t rounds = 0;
  std::uint64_t syncs_sent = 0;
  std::uint64_t syncs_received = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t records_updated = 0;  ///< merge rows where remote won
  std::uint64_t refutations = 0;      ///< own incarnation bumps
  std::uint64_t suspicions = 0;       ///< alive→suspect transitions observed
  std::uint64_t deaths = 0;           ///< →dead transitions declared locally
};

class GossipAgent {
 public:
  explicit GossipAgent(MemberState self, GossipConfig config = {});

  const std::string& id() const { return self_id_; }
  std::uint64_t round() const { return round_; }
  const GossipConfig& config() const { return config_; }
  const GossipAgentStats& stats() const { return stats_; }

  /// Adds a bootstrap contact (ignored if already known or self).
  void seed_peer(const MemberState& peer);

  /// One gossip round: advance the round clock, bump own heartbeat,
  /// re-evaluate phi for every peer, and return the ids of the peers to
  /// push a sync to this round (seeded selection, ≤ fanout, no repeats).
  std::vector<std::string> tick();

  /// The full-state sync frame this agent would send now.
  GossipMessage make_sync() const;

  /// Merges a received sync and returns the ack (this agent's table).
  GossipMessage handle_sync(const GossipMessage& message);

  /// Merges a received ack.
  void handle_ack(const GossipMessage& message);

  /// Graceful exit: tombstones self as kLeft (propagated by later syncs —
  /// callers typically tick once more to announce it).
  void leave();

  /// Returns after a leave() (or a dead accusation) with a fresh
  /// incarnation; the new record beats every tombstone.
  void rejoin();

  /// Publishes this node's history generation into the member table.
  void announce_generation(std::uint64_t generation);

  /// Membership digest: id, host, port, incarnation, health, generation of
  /// every known record (tombstones included), heartbeats excluded.
  /// Converged nodes — and only converged nodes — compare equal.
  std::uint64_t digest() const;

  /// Routing view: a HashRing over the alive + suspect members, versioned
  /// by a digest of their (id, incarnation) pairs so every converged node
  /// derives the identical ring.
  HashRing ring() const;

  /// The full table, id-sorted (self included).
  std::vector<MemberState> members() const;

  const MemberState& self() const;

 private:
  /// True when the remote record should replace `local`.
  static bool remote_wins(const MemberState& local, const MemberState& remote);
  void merge(const std::vector<MemberState>& remote);
  void evaluate_liveness();

  /// Rounds-between-heartbeat-advances tracker behind the phi estimate.
  struct Liveness {
    std::uint64_t last_heartbeat = 0;
    std::uint64_t last_advance_round = 0;
    double mean_interval = 1.0;
    std::uint64_t observed = 0;
  };

  std::string self_id_;
  GossipConfig config_;
  Rng peer_rng_;
  std::uint64_t round_ = 0;
  std::map<std::string, MemberState> members_;  // self included
  std::map<std::string, Liveness> liveness_;
  GossipAgentStats stats_;
};

/// In-process transport for seed-pinned gossip storms: owns N agents, runs
/// lockstep rounds in id order, applies explicit partitions and the
/// `gossip.drop` (message lost) / `gossip.delay` (delivered next round)
/// failpoints to every sync and ack, and reports convergence. Single-
/// threaded; every run with the same seeds and failpoint spec replays
/// byte-identically.
class GossipMesh {
 public:
  explicit GossipMesh(GossipConfig config = {});

  /// Creates a node; id must be unique. Returns the agent (stable address).
  GossipAgent& add_node(const std::string& node_id,
                        const std::string& host = "127.0.0.1",
                        std::uint16_t port = 0);

  /// Seeds every agent with every other as a contact (full bootstrap).
  void connect_all();

  GossipAgent& agent(const std::string& node_id);
  const GossipAgent& agent(const std::string& node_id) const;
  std::vector<std::string> node_ids() const;

  /// Splits the mesh into groups; messages cross group boundaries only
  /// after heal(). Ids not named fall into an implicit last group.
  void partition(const std::vector<std::vector<std::string>>& groups);
  void heal();

  /// Simulates a crash: the node stops ticking, sending, and receiving
  /// (peers will accrue phi against it). restart() resumes it with a fresh
  /// incarnation.
  void stop(const std::string& node_id);
  void restart(const std::string& node_id);
  bool stopped(const std::string& node_id) const;

  /// One lockstep round: deliver last round's delayed messages, then tick
  /// every running agent in id order and route its syncs/acks through the
  /// partition map and the gossip.* failpoints.
  void run_round();

  /// Rounds run so far.
  std::uint64_t rounds() const { return rounds_; }

  /// All running, non-left agents share one membership digest *and* one
  /// ring digest.
  bool converged() const;

  /// Runs rounds until converged() or the bound; returns the total rounds
  /// run when converged, -1 when the bound was hit first.
  int run_until_converged(int max_rounds);

  /// The converged digest (requires converged()).
  std::uint64_t digest() const;

 private:
  struct Node {
    std::unique_ptr<GossipAgent> agent;
    bool running = true;
  };
  struct Delayed {
    std::string from;
    std::string to;
    GossipMessage message;
  };

  bool blocked(const std::string& a, const std::string& b) const;
  /// Routes one sync to `to` and its ack back to `from`, applying
  /// partition / drop / delay; delayed messages land next round.
  void route_sync(const std::string& from, const std::string& to,
                  GossipMessage message);
  void deliver_sync(const std::string& from, const std::string& to,
                    const GossipMessage& message);

  GossipConfig config_;
  std::map<std::string, Node> nodes_;  // id order == round order
  std::map<std::string, int> group_of_;  // empty: fully connected
  std::vector<Delayed> delayed_;
  std::uint64_t rounds_ = 0;
};

}  // namespace fgcs
