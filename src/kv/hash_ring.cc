#include "src/kv/hash_ring.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <stdexcept>

namespace kv {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// FNV-1a over `s`, continuing from `state`: Fnv1a(b, Fnv1a(a)) is the
// FNV-1a state of a + b.
std::uint64_t Fnv1a(std::string_view s, std::uint64_t state = kFnvOffset) {
  for (unsigned char c : s) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
  return state;
}

// Decimal digits of `i`, as std::to_string writes them.
std::string_view Decimal(int i, char (&buf)[16]) {
  const auto end = std::to_chars(buf, buf + sizeof(buf), i).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

}  // namespace

std::uint64_t HashBytes(std::string_view s) { return Mix64(Fnv1a(s)); }

int HashRing::IndexOf(const std::string& id) const {
  const auto it = std::find(servers_.begin(), servers_.end(), id);
  return it == servers_.end() ? -1 : static_cast<int>(it - servers_.begin());
}

std::uint32_t HashRing::AddServer(const std::string& id) {
  if (const int existing = IndexOf(id); existing >= 0) {
    return static_cast<std::uint32_t>(existing);
  }
  if (servers_.size() >= kMaxServers) {
    throw std::length_error("HashRing: more than 64 servers");
  }
  servers_.push_back(id);
  Rebuild();
  return static_cast<std::uint32_t>(servers_.size() - 1);
}

void HashRing::RemoveServer(const std::string& id) {
  const int index = IndexOf(id);
  if (index < 0) {
    return;
  }
  servers_.erase(servers_.begin() + index);
  Rebuild();
}

void HashRing::Rebuild() {
  ring_.clear();
  ring_.reserve(servers_.size() * static_cast<std::size_t>(std::max(vnodes_, 0)));
  char buf[16];
  for (std::uint32_t s = 0; s < servers_.size(); ++s) {
    const std::uint64_t id_state = Fnv1a("#", Fnv1a(servers_[s]));
    for (int v = 0; v < vnodes_; ++v) {
      ring_.emplace_back(Mix64(Fnv1a(Decimal(v, buf), id_state)), s);
    }
  }
  // Sorting the pairs puts the later-added server last among equal points;
  // keep only that one, as if each server's points were written over the
  // earlier ones in add order.
  std::sort(ring_.begin(), ring_.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (i + 1 < ring_.size() && ring_[i + 1].first == ring_[i].first) {
      continue;
    }
    ring_[kept++] = ring_[i];
  }
  ring_.resize(kept);
}

std::uint32_t HashRing::WalkFrom(std::uint64_t point, std::uint64_t exclude) const {
  if (ring_.empty() || static_cast<std::size_t>(std::popcount(exclude)) >= servers_.size()) {
    return kNoServer;
  }
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<std::uint64_t, std::uint32_t>& e, std::uint64_t p) { return e.first < p; });
  for (std::size_t steps = 0; steps < ring_.size(); ++steps, ++it) {
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    if ((exclude >> it->second & 1) == 0) {
      return it->second;
    }
  }
  return kNoServer;
}

std::string HashRing::Lookup(const std::string& key) const {
  const std::uint32_t s = WalkFrom(HashBytes(key), 0);
  return s == kNoServer ? "" : servers_[s];
}

std::vector<std::uint32_t> HashRing::ReplicaIndices(const std::string& key, int k) const {
  std::vector<std::uint32_t> out;
  // hash_i(key) is HashBytes(key + "@" + i): continue the FNV state of the
  // key instead of building that string.
  const std::uint64_t key_state = Fnv1a("@", Fnv1a(key));
  std::uint64_t chosen = 0;
  char buf[16];
  for (int i = 0; i < k && out.size() < servers_.size(); ++i) {
    const std::uint32_t s = WalkFrom(Mix64(Fnv1a(Decimal(i, buf), key_state)), chosen);
    if (s == kNoServer) {
      break;
    }
    chosen |= std::uint64_t{1} << s;
    out.push_back(s);
  }
  return out;
}

std::vector<std::string> HashRing::Replicas(const std::string& key, int k) const {
  std::vector<std::string> out;
  for (const std::uint32_t s : ReplicaIndices(key, k)) {
    out.push_back(servers_[s]);
  }
  return out;
}

}  // namespace kv
