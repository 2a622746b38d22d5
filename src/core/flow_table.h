// FlowTable: the instance's flow-state store, split out of YodaInstance.
//
// Owns the LocalFlow lifecycle — lookup, insert, idle collection, erase —
// keyed by the client-side FlowKey, plus the server-tuple reverse index that
// classifies return traffic. Both are sim::FlatMaps. A LocalFlow lives
// behind a unique_ptr, so the LocalFlow* Find returns stays valid until that
// flow is erased, whatever else the table does meanwhile; keys returned by
// FindServer are copies for the same reason.

#ifndef SRC_CORE_FLOW_TABLE_H_
#define SRC_CORE_FLOW_TABLE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/local_flow.h"
#include "src/net/packet.h"
#include "src/sim/flat_map.h"
#include "src/sim/time.h"

namespace yoda {

class FlowTable {
 public:
  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  LocalFlow* Find(const FlowKey& key) {
    std::unique_ptr<LocalFlow>* flow = flows_.Find(key);
    return flow == nullptr ? nullptr : flow->get();
  }
  // Inserts (replacing any existing entry) and returns the stored flow.
  LocalFlow& Insert(const FlowKey& key, std::unique_ptr<LocalFlow> flow);
  void Erase(const FlowKey& key) { flows_.Erase(key); }

  std::size_t size() const { return flows_.size(); }

  // Visits every flow in table order, which is unspecified: use only for
  // work whose outcome does not depend on the order.
  void ForEach(const std::function<void(const FlowKey&, LocalFlow&)>& fn);

  // Keys with no packets since `idle_deadline` that are not waiting on a
  // takeover lookup — the idle-scan GC set. Sorted by FlowKey order (vip,
  // vip_port, client_ip, client_port), so the store removes and RSTs the
  // caller issues in turn never follow the table's layout.
  std::vector<FlowKey> CollectIdle(sim::Time idle_deadline) const;
  // Every key belonging to `vip` (VIP teardown drain), sorted likewise.
  std::vector<FlowKey> CollectVip(net::IpAddr vip) const;

  // --- server-side reverse index (return-path classification) ---
  void BindServer(const net::FiveTuple& tuple, const FlowKey& key) {
    server_index_[tuple] = key;
  }
  void UnbindServer(const net::FiveTuple& tuple) { server_index_.Erase(tuple); }
  // Empty when the tuple is unknown (takeover candidate).
  std::optional<FlowKey> FindServer(const net::FiveTuple& tuple) const {
    const FlowKey* key = server_index_.Find(tuple);
    return key == nullptr ? std::nullopt : std::optional<FlowKey>(*key);
  }
  bool HasServer(const net::FiveTuple& tuple) const { return server_index_.Contains(tuple); }
  std::size_t server_index_size() const { return server_index_.size(); }

  // Drops all flows and index entries (instance crash).
  void Clear();

 private:
  sim::FlatMap<FlowKey, std::unique_ptr<LocalFlow>, FlowKeyHash> flows_;
  sim::FlatMap<net::FiveTuple, FlowKey, net::FiveTupleHash> server_index_;
};

}  // namespace yoda

#endif  // SRC_CORE_FLOW_TABLE_H_
