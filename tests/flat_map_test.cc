// sim::FlatMap tests: a seeded differential run against std::unordered_map
// (insert, overwrite, erase, EraseIf, Clear, growth), backward-shift
// deletion across the end of the slot array, and the allocation rules
// (an empty map holds no storage; Clear releases it).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/flat_map.h"

namespace sim {
namespace {

// Inverse of FlatMap's Fibonacci multiplier mod 2^64 (Newton iteration; an
// odd x is its own inverse mod 8, and each step doubles the correct bits).
constexpr std::uint64_t InverseOf(std::uint64_t x) {
  std::uint64_t inv = x;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - x * inv;
  }
  return inv;
}
constexpr std::uint64_t kFib = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kFibInverse = InverseOf(kFib);
static_assert(kFib * kFibInverse == 1);

// Hash that places key k at home slot (k >> 8) % 16 of a 16-slot table:
// the map multiplies by kFib and keeps the top four bits. Bigger tables
// keep more bits, so homes there are that slot times capacity/16. The low
// byte of the key only tells keys with the same home apart.
struct SlotHash {
  std::size_t operator()(std::uint64_t k) const {
    return static_cast<std::size_t>((((k >> 8) % 16) << 60) * kFibInverse);
  }
};
std::uint64_t KeyAt(std::uint64_t home, std::uint64_t n) { return home << 8 | n; }

using SlotMap = FlatMap<std::uint64_t, int, SlotHash>;

void ExpectSameContents(SlotMap& map, const std::unordered_map<std::uint64_t, int>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const int* found = map.Find(k);
    ASSERT_NE(found, nullptr) << "key " << k;
    EXPECT_EQ(*found, v) << "key " << k;
  }
  std::size_t visited = 0;
  map.ForEach([&](std::uint64_t k, int& v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "stray key " << k;
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, EmptyMapAllocatesNothing) {
  SlotMap map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(KeyAt(3, 0)), nullptr);
  EXPECT_FALSE(map.Contains(KeyAt(3, 0)));
  EXPECT_FALSE(map.Erase(KeyAt(3, 0)));
  EXPECT_EQ(map.EraseIf([](std::uint64_t, int) { return true; }), 0u);
  EXPECT_EQ(map.capacity(), 0u);

  map[KeyAt(3, 0)] = 7;
  EXPECT_EQ(map.capacity(), 16u);
  map.Clear();
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.Find(KeyAt(3, 0)), nullptr);
}

TEST(FlatMap, BackwardShiftAcrossWrapAround) {
  // Five keys homed at slot 14 and three at slot 15 fill 14, 15 and wrap
  // into 0..5; two keys homed at 0 and 1 land behind them at 6 and 7.
  // Erasing from the head of the cluster must pull every later member back
  // across the end of the array without stranding the keys homed at 0 and 1.
  SlotMap map;
  std::unordered_map<std::uint64_t, int> ref;
  auto put = [&](std::uint64_t k) {
    map[k] = static_cast<int>(k);
    ref[k] = static_cast<int>(k);
  };
  for (std::uint64_t n = 0; n < 5; ++n) {
    put(KeyAt(14, n));
  }
  for (std::uint64_t n = 0; n < 3; ++n) {
    put(KeyAt(15, n));
  }
  put(KeyAt(0, 0));
  put(KeyAt(1, 0));
  ASSERT_EQ(map.capacity(), 16u);  // Ten entries: no growth, the layout holds.
  ExpectSameContents(map, ref);

  for (const std::uint64_t k : {KeyAt(14, 0), KeyAt(15, 1), KeyAt(14, 3), KeyAt(0, 0),
                                KeyAt(14, 1), KeyAt(15, 0)}) {
    ASSERT_TRUE(map.Erase(k));
    ref.erase(k);
    ExpectSameContents(map, ref);
  }
  EXPECT_FALSE(map.Erase(KeyAt(14, 0)));
  // Re-insert into the now-shorter cluster and erase the rest.
  put(KeyAt(15, 7));
  put(KeyAt(0, 7));
  ExpectSameContents(map, ref);
  const std::size_t removed =
      map.EraseIf([](std::uint64_t k, int) { return (k >> 8) != 1; });
  EXPECT_EQ(removed, ref.size() - 1);
  ref = {{KeyAt(1, 0), static_cast<int>(KeyAt(1, 0))}};
  ExpectSameContents(map, ref);
}

TEST(FlatMap, SeededDifferentialAgainstUnorderedMap) {
  // Few homes and many keys per home: long clusters that wrap around the
  // end of the array, at every capacity the growth path passes through.
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937 rng(seed);
    SlotMap map;
    std::unordered_map<std::uint64_t, int> ref;
    auto key = [&rng]() {
      const std::uint64_t home = 12 + rng() % 6;  // Homes 12..15, 0, 1.
      return KeyAt(home % 16, rng() % 40);
    };
    for (int op = 0; op < 4'000; ++op) {
      const std::uint32_t roll = rng() % 100;
      const std::uint64_t k = key();
      const int v = static_cast<int>(rng() % 1000);
      if (roll < 40) {
        map[k] = v;
        ref[k] = v;
      } else if (roll < 60) {
        // Overwrite through the returned reference; a read of a missing
        // key inserts a value-initialized entry, as std::unordered_map's.
        EXPECT_EQ(map.Contains(k), ref.contains(k));
        int& slot = map[k];
        EXPECT_EQ(slot, ref[k]);
        slot = v;
        ref[k] = v;
      } else if (roll < 90) {
        EXPECT_EQ(map.Erase(k), ref.erase(k) > 0);
      } else if (roll < 98) {
        const int mod = 2 + static_cast<int>(rng() % 5);
        std::size_t expected = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if (it->second % mod == 0) {
            it = ref.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(map.EraseIf([mod](std::uint64_t, int val) { return val % mod == 0; }),
                  expected);
      } else {
        map.Clear();
        ref.clear();
      }
      ExpectSameContents(map, ref);
      if (HasFatalFailure()) {
        FAIL() << "seed " << seed << " op " << op;
      }
    }
  }
}

TEST(FlatMap, MoveOnlyValuesAreReleasedOnEraseAndClear) {
  auto tracker = std::make_shared<int>(0);
  FlatMap<std::string, std::unique_ptr<std::shared_ptr<int>>> map;
  for (int i = 0; i < 100; ++i) {
    map[std::to_string(i)] = std::make_unique<std::shared_ptr<int>>(tracker);
  }
  EXPECT_EQ(tracker.use_count(), 101);
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(map.Erase(std::to_string(i)));
  }
  EXPECT_EQ(tracker.use_count(), 51);
  for (int i = 1; i < 100; i += 2) {
    ASSERT_NE(map.Find(std::to_string(i)), nullptr) << i;
  }
  map.Clear();
  EXPECT_EQ(tracker.use_count(), 1);
}

}  // namespace
}  // namespace sim
