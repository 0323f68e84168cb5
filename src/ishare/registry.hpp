// Resource publication and discovery.
//
// ishare uses a P2P network for publication/discovery (paper §5.1, ref [24]);
// the framework contract is publish / unpublish / lookup / enumerate. This is
// the in-process registry the schedulers consume (DESIGN.md §2):
// deterministic, ordered by machine id, one flat map, so a machine id is
// enumerated at most once. The decentralized form of discovery lives in the
// serving tier — the consistent-hash ring inside PredictionServer and
// ShardedPredictionClient, kept consistent by gossip (DESIGN.md §11).
//
// Entries are non-owning: a published gateway must outlive its registry
// entry (unpublish before destroying it). Enumeration order is what makes
// scheduler selection reproducible run-to-run. Lookups and enumeration may
// be thinned by injected churn (failpoints); callers treat a lookup miss and
// a partial enumeration as normal degraded modes, never as fatal. Not
// thread-safe: publish/unpublish from one thread, or synchronize externally.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ishare/gateway.hpp"

namespace fgcs {

class Registry {
 public:
  /// Publishes a gateway (non-owning; the gateway must outlive the registry
  /// entry). Re-publishing the same machine id replaces the entry.
  void publish(Gateway& gateway);

  /// Removes the entry; returns false if the id was not published.
  bool unpublish(const std::string& machine_id);

  /// nullptr when not found (or when churn made the entry look lost).
  Gateway* lookup(const std::string& machine_id) const;

  /// All published gateways, ordered by machine id; may omit entries under
  /// injected churn.
  std::vector<Gateway*> gateways() const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, Gateway*> entries_;
};

}  // namespace fgcs
