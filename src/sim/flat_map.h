// FlatMap: the one open-addressing hash map of the data path.
//
// Every per-packet and per-flow table (the instance flow table and its
// server-side index, the network endpoint table, the fabric SNAT pins, the
// server and client connection demuxes, the flight recorder's per-flow rings
// and the KV server's items) is a FlatMap. One flat array of slots, a
// power-of-two capacity, linear probing and backward-shift deletion: a hit
// costs a multiply, a shift and usually one cache line, where a node-based
// std::unordered_map pays a divide-by-prime and a pointer chase per lookup.
//
// The caller's hash is mixed before use (Fibonacci multiply, high bits
// kept), so identity hashes such as std::hash<uint32_t> or FiveTupleHash
// spread well. Each slot keeps its mixed hash: it marks the slot used, lets
// a probe skip most key compares, and spares growth and erase from hashing
// keys again (which matters for string keys). Load stays at or below 3/4;
// the table doubles past that and never shrinks except on Clear(). An empty
// map allocates nothing.
//
// Two rules for callers:
//  - Entries move when the table grows and when an erase shifts a probe
//    cluster back. No pointer or reference returned by Find or operator[]
//    survives the next mutation of the same map (insert, erase, EraseIf,
//    Clear). Values that must stay put across mutations live behind a
//    std::unique_ptr and are held by raw pointer.
//  - Iteration order (ForEach, EraseIf) follows hash values and insert
//    history. It must never reach the simulation: a caller that acts on
//    several entries in turn sorts them first, or its action must not
//    depend on the order.

#ifndef SRC_SIM_FLAT_MAP_H_
#define SRC_SIM_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace sim {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename KeyEqual = std::equal_to<K>>
class FlatMap {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  V* Find(const K& key) {
    const std::size_t i = IndexOf(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const V* Find(const K& key) const { return const_cast<FlatMap*>(this)->Find(key); }
  bool Contains(const K& key) const { return IndexOf(key) != kNone; }

  // The value for `key`, value-initialized first if absent, and whether it
  // was absent.
  std::pair<V*, bool> TryEmplace(const K& key) {
    const auto [i, inserted] = Claim(key);
    return {&slots_[i].value, inserted};
  }
  V& operator[](const K& key) { return *TryEmplace(key).first; }

  // Removes `key`; returns whether it was present.
  bool Erase(const K& key) {
    const std::size_t i = IndexOf(key);
    if (i == kNone) {
      return false;
    }
    EraseAt(i);
    return true;
  }

  // Removes every entry for which pred(key, value) is true; each entry is
  // tested exactly once. Returns the number removed.
  template <typename Pred>
  std::size_t EraseIf(Pred pred) {
    if (size_ == 0) {
      return 0;
    }
    // Start just past an empty slot: no probe cluster wraps across it, so
    // the backward shifts of an erase only ever move entries the scan has
    // not reached yet into the slot it is standing on.
    std::size_t start = 0;
    while (slots_[start].tag != 0) {
      ++start;
    }
    std::size_t removed = 0;
    std::size_t i = (start + 1) & mask_;
    for (std::size_t steps = 1; steps < slots_.size();) {
      Slot& s = slots_[i];
      if (s.tag != 0 && pred(static_cast<const K&>(s.key), s.value)) {
        EraseAt(i);
        ++removed;
        continue;  // Slot i now holds the next cluster member, if any.
      }
      i = (i + 1) & mask_;
      ++steps;
    }
    return removed;
  }

  // Visits every entry as fn(key, value), in table order (see above).
  template <typename Fn>
  void ForEach(Fn fn) {
    for (Slot& s : slots_) {
      if (s.tag != 0) {
        fn(static_cast<const K&>(s.key), s.value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.tag != 0) {
        fn(s.key, s.value);
      }
    }
  }

  // Drops every entry and releases the storage.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
    mask_ = 0;
    shift_ = 64;
  }

 private:
  struct Slot {
    K key{};
    V value{};
    std::uint64_t tag = 0;  // Mixed hash with the low bit set; 0 = empty.
  };

  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  // The caller's hash, Fibonacci-mixed. The home slot is its top bits, so
  // the low bit is free to mark the slot used.
  std::uint64_t TagOf(const K& key) const {
    return (static_cast<std::uint64_t>(hash_(key)) * 0x9E3779B97F4A7C15ull) | 1;
  }
  std::size_t Home(std::uint64_t tag) const { return static_cast<std::size_t>(tag >> shift_); }

  std::size_t Probe(const K& key, std::uint64_t tag) const {
    for (std::size_t i = Home(tag);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.tag == 0) {
        return kNone;
      }
      if (s.tag == tag && eq_(s.key, key)) {
        return i;
      }
    }
  }

  std::size_t IndexOf(const K& key) const {
    return size_ == 0 ? kNone : Probe(key, TagOf(key));
  }

  // The slot holding `key`, inserting a value-initialized entry if absent;
  // true when it inserted.
  std::pair<std::size_t, bool> Claim(const K& key) {
    const std::uint64_t tag = TagOf(key);
    if (size_ != 0) {
      const std::size_t i = Probe(key, tag);
      if (i != kNone) {
        return {i, false};
      }
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    std::size_t i = Home(tag);
    while (slots_[i].tag != 0) {
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].tag = tag;
    ++size_;
    return {i, true};
  }

  void Grow() {
    const std::size_t capacity = slots_.empty() ? kMinCapacity : slots_.size() * 2;
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) {
      --shift_;
    }
    for (Slot& s : old) {
      if (s.tag != 0) {
        std::size_t i = Home(s.tag);
        while (slots_[i].tag != 0) {
          i = (i + 1) & mask_;
        }
        slots_[i] = std::move(s);
      }
    }
  }

  // Backward-shift deletion: pull later cluster members into the hole when
  // the hole lies on their probe path, so lookups never meet a gap between
  // an entry's home and its slot. No tombstones.
  void EraseAt(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask_; slots_[j].tag != 0; j = (j + 1) & mask_) {
      const std::size_t home = Home(slots_[j].tag);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
  [[no_unique_address]] Hash hash_;
  [[no_unique_address]] KeyEqual eq_;
};

}  // namespace sim

#endif  // SRC_SIM_FLAT_MAP_H_
