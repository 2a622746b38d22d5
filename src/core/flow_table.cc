#include "src/core/flow_table.h"

#include <algorithm>
#include <utility>

namespace yoda {

LocalFlow& FlowTable::Insert(const FlowKey& key, std::unique_ptr<LocalFlow> flow) {
  std::unique_ptr<LocalFlow>& slot = flows_[key];
  slot = std::move(flow);
  return *slot;
}

void FlowTable::ForEach(const std::function<void(const FlowKey&, LocalFlow&)>& fn) {
  flows_.ForEach(
      [&fn](const FlowKey& key, std::unique_ptr<LocalFlow>& flow) { fn(key, *flow); });
}

std::vector<FlowKey> FlowTable::CollectIdle(sim::Time idle_deadline) const {
  std::vector<FlowKey> out;
  flows_.ForEach([&](const FlowKey& key, const std::unique_ptr<LocalFlow>& flow) {
    if (!flow->lookup_pending() && flow->last_packet < idle_deadline) {
      out.push_back(key);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FlowKey> FlowTable::CollectVip(net::IpAddr vip) const {
  std::vector<FlowKey> out;
  flows_.ForEach([&](const FlowKey& key, const std::unique_ptr<LocalFlow>&) {
    if (key.vip == vip) {
      out.push_back(key);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

void FlowTable::Clear() {
  flows_.Clear();
  server_index_.Clear();
}

}  // namespace yoda
