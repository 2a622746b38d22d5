// Consistent-hash ring used by the TCPStore client library to pick, for each
// key, K distinct replica servers out of N (paper §6: "the Memcached client
// first determines the K servers among the total N servers using K different
// hash functions, and consistent hashing").
//
// The ring is one sorted vector of (hash point, server index) pairs, rebuilt
// with one sort whenever the server set changes. A lookup is a binary search
// plus a short forward walk; replica exclusion is a bitmask over server
// indices, so picking K replicas builds no string and allocates nothing but
// the result.

#ifndef SRC_KV_HASH_RING_H_
#define SRC_KV_HASH_RING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kv {

// Stateless 64-bit string hash (FNV-1a finalised with splitmix64). Exposed so
// other components (L4 ECMP, Yoda ISN generation) share one audited hash.
std::uint64_t HashBytes(std::string_view s);

// splitmix64 finaliser. Inline: flow-key hashes call it on every lookup.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class HashRing {
 public:
  // Replica exclusion is a 64-bit mask, so a ring holds at most 64 servers.
  static constexpr std::size_t kMaxServers = 64;

  explicit HashRing(int vnodes_per_server = 128) : vnodes_(vnodes_per_server) {}

  // Adds `id` (no-op if present) and returns its server index: servers are
  // numbered in the order they were added, and RemoveServer renumbers the
  // ones after it. Throws std::length_error past kMaxServers.
  std::uint32_t AddServer(const std::string& id);
  void RemoveServer(const std::string& id);
  bool HasServer(const std::string& id) const { return IndexOf(id) >= 0; }
  std::size_t server_count() const { return servers_.size(); }

  // Owner of a key under plain consistent hashing (first replica).
  std::string Lookup(const std::string& key) const;

  // K distinct replicas: replica i starts from hash_i(key) — the hash of
  // key + "@" + i — and walks the ring until it finds a server not already
  // chosen. Returns fewer than k only when fewer than k servers exist.
  std::vector<std::string> Replicas(const std::string& key, int k) const;
  // The same replicas as server indices.
  std::vector<std::uint32_t> ReplicaIndices(const std::string& key, int k) const;

 private:
  static constexpr std::uint32_t kNoServer = ~std::uint32_t{0};

  int IndexOf(const std::string& id) const;
  void Rebuild();
  // First server at or after `point` (wrapping) whose bit in `exclude` is
  // clear; kNoServer when there is none.
  std::uint32_t WalkFrom(std::uint64_t point, std::uint64_t exclude) const;

  int vnodes_;
  std::vector<std::string> servers_;  // Index -> id, in add order.
  // (hash point, server index), sorted by point. Where two virtual nodes
  // share a point, the server added later holds it.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace kv

#endif  // SRC_KV_HASH_RING_H_
