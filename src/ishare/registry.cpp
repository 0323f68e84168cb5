#include "ishare/registry.hpp"

#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace fgcs {

void Registry::publish(Gateway& gateway) {
  entries_[gateway.machine_id()] = &gateway;
}

bool Registry::unpublish(const std::string& machine_id) {
  return entries_.erase(machine_id) > 0;
}

Gateway* Registry::lookup(const std::string& machine_id) const {
  // Chaos hook: a fired staleness makes the entry look lost (the P2P overlay
  // dropped or has not yet refreshed this gateway's publication).
  if (FGCS_FAILPOINT("registry.lookup.stale")) {
    static Counter& stale =
        MetricsRegistry::global().counter("registry.lookup.stale.total");
    stale.add();
    return nullptr;
  }
  const auto it = entries_.find(machine_id);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<Gateway*> Registry::gateways() const {
  std::vector<Gateway*> out;
  out.reserve(entries_.size());
  for (const auto& [id, gateway] : entries_) {
    // Chaos hook: per-entry drop from enumeration — the scheduler sees a
    // partial fleet, as it would during P2P churn.
    if (FGCS_FAILPOINT("registry.enumerate.drop")) {
      static Counter& drops =
          MetricsRegistry::global().counter("registry.enumerate.drops.total");
      drops.add();
      continue;
    }
    out.push_back(gateway);
  }
  return out;
}

}  // namespace fgcs
