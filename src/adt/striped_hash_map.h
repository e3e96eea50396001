// StripedHashMap: a linearizable hash map with per-stripe locking, built
// from scratch.
//
// This is the Java-library-equivalent substrate for the paper's Map ADT: the
// semantic-locking layer is deliberately decoupled from it (the paper's
// modularity claim), so concurrent commuting operations — e.g. puts on
// different keys admitted simultaneously by the semantic locks — must be
// safe against each other here. compute_if_absent() makes the same map the
// hand-crafted V8 baseline of Fig. 21.
//
// Layout. A key's mixed hash picks its stripe (low bits) and its home slot
// in that stripe's table (bits 16 and up). Each stripe owns one flat
// linear-probing table: one heap block holding a control byte per slot
// (0 = empty, else 0x80 | the hash's top 7 bits), then the keys inline, then
// the values in a parallel array. A hit compares a control byte and a key in
// place; no entry has a heap node, so an insert allocates only when its table
// grows. A stripe allocates its table on its first insert (an empty map holds
// no table) and doubles it when an insert would make it more than half full.
// remove() shifts the rest of the probe chain back over the hole, so there
// are no tombstones, and remove() and clear() destroy the value at once.
//
// Every operation, lookups included, holds the stripe's spinlock. A reader
// without it could see a grow free the block under it, and a seqlock lookup
// over this table saved only 8% of cia_hits p50 and cost 4% of p99
// (EXPERIMENTS §17): the lock's line is one the lookup reads anyway.
//
// size() sums per-stripe counters; it is exact whenever no mutator runs
// concurrently, which is precisely the situation the semantic locks create
// (a size() mode conflicts with every mutator mode).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/align.h"
#include "util/spinlock.h"

namespace semlock::adt {

inline std::size_t mix_hash(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

template <typename K, typename V, typename Hash = std::hash<K>>
class StripedHashMap {
 public:
  explicit StripedHashMap(std::size_t num_stripes = 64,
                          std::size_t initial_slots_per_stripe = 16)
      : mask_(round_up_pow2(num_stripes) - 1),
        initial_slots_(round_up_pow2(std::max<std::size_t>(
            initial_slots_per_stripe, 2))),
        stripes_(mask_ + 1) {}

  StripedHashMap(const StripedHashMap&) = delete;
  StripedHashMap& operator=(const StripedHashMap&) = delete;

  ~StripedHashMap() {
    for (auto& s : stripes_) release(s.table);
  }

  std::optional<V> get(const K& key) const {
    const std::size_t h = hash_of(key);
    const Stripe& s = stripes_[h & mask_];
    std::scoped_lock guard(s.lock);
    const std::size_t i = find(s.table, key, h);
    if (i == kAbsent) return std::nullopt;
    return s.table.vals[i];
  }

  bool contains_key(const K& key) const {
    const std::size_t h = hash_of(key);
    const Stripe& s = stripes_[h & mask_];
    std::scoped_lock guard(s.lock);
    return find(s.table, key, h) != kAbsent;
  }

  // Inserts or overwrites; returns true if the key was newly inserted.
  bool put(const K& key, V value) {
    const std::size_t h = hash_of(key);
    Stripe& s = stripes_[h & mask_];
    std::scoped_lock guard(s.lock);
    const auto [i, inserted] =
        emplace(s, key, h, [&] { return std::move(value); });
    if (!inserted) s.table.vals[i] = std::move(value);
    return inserted;
  }

  // Inserts only if absent; returns true if inserted.
  bool put_if_absent(const K& key, V value) {
    const std::size_t h = hash_of(key);
    Stripe& s = stripes_[h & mask_];
    std::scoped_lock guard(s.lock);
    return emplace(s, key, h, [&] { return std::move(value); }).second;
  }

  // Returns the value of `key`, first inserting factory() if the key is
  // absent. The factory runs under the stripe lock, at most once per
  // inserted key, so calls on keys of other stripes proceed in parallel.
  template <typename Factory>
  V compute_if_absent(const K& key, Factory&& factory) {
    const std::size_t h = hash_of(key);
    Stripe& s = stripes_[h & mask_];
    std::scoped_lock guard(s.lock);
    const std::size_t i = emplace(s, key, h, factory).first;
    return s.table.vals[i];  // read after emplace, which may grow the table
  }

  // Returns true if the key was present.
  bool remove(const K& key) {
    const std::size_t h = hash_of(key);
    Stripe& s = stripes_[h & mask_];
    std::scoped_lock guard(s.lock);
    const std::size_t i = find(s.table, key, h);
    if (i == kAbsent) return false;
    erase_at(s.table, i);
    s.count.store(s.count.load(std::memory_order_relaxed) - 1,
                  std::memory_order_relaxed);
    return true;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : stripes_) {
      total += s.count.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Empties every stripe, keeping its table's capacity.
  void clear() {
    for (auto& s : stripes_) {
      std::scoped_lock guard(s.lock);
      vacate_all(s.table);
      s.count.store(0, std::memory_order_relaxed);
    }
  }

  // Applies fn(key, value) to every entry. Holds one stripe lock at a time;
  // callers needing a consistent snapshot must ensure quiescence externally
  // (the cache benchmark invokes this only under an exclusive semantic
  // mode).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : stripes_) {
      std::scoped_lock guard(s.lock);
      const Table& t = s.table;
      for (std::size_t i = 0; i < t.cap; ++i) {
        if (t.ctrl[i] != 0) fn(t.keys[i], t.vals[i]);
      }
    }
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  static_assert(std::is_nothrow_copy_constructible_v<K> &&
                std::is_nothrow_move_assignable_v<K> &&
                std::is_nothrow_move_constructible_v<V> &&
                std::is_nothrow_move_assignable_v<V>);
  static_assert(alignof(K) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                alignof(V) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  // A stripe's table, in one heap block: `cap` control bytes, then the
  // keys, then the values. Only full slots hold live keys and values.
  struct Table {
    std::size_t cap = 0;  // a power of two, or 0 before the first insert
    std::uint8_t* ctrl = nullptr;
    K* keys = nullptr;
    V* vals = nullptr;
  };

  struct alignas(util::kCacheLineSize) Stripe {
    mutable util::Spinlock lock;
    std::atomic<std::size_t> count{0};  // written under `lock` only
    Table table;
  };

  static std::size_t round_up_pow2(std::size_t x) {
    std::size_t p = 1;
    while (p < x) p <<= 1;
    return p;
  }

  static std::size_t hash_of(const K& key) { return mix_hash(Hash{}(key)); }
  static std::size_t home_of(std::size_t h, std::size_t cap) {
    return (h >> 16) & (cap - 1);
  }
  static std::uint8_t tag_of(std::size_t h) {
    return static_cast<std::uint8_t>(
        0x80 | (h >> (std::numeric_limits<std::size_t>::digits - 7)));
  }

  // The slot holding `key`, else the empty slot that ends its probe chain.
  // The table must be allocated; it always has an empty slot.
  static std::size_t probe(const Table& t, const K& key, std::size_t h) {
    const std::uint8_t tag = tag_of(h);
    std::size_t i = home_of(h, t.cap);
    while (t.ctrl[i] != 0 && !(t.ctrl[i] == tag && t.keys[i] == key)) {
      i = (i + 1) & (t.cap - 1);
    }
    return i;
  }

  static std::size_t find(const Table& t, const K& key, std::size_t h) {
    if (t.cap == 0) return kAbsent;
    const std::size_t i = probe(t, key, h);
    return t.ctrl[i] != 0 ? i : kAbsent;
  }

  // The slot of `key`, inserting make() there first if the key is absent,
  // and whether it did. make() runs at most once, before the slot is
  // claimed, so a throwing make() leaves the entries as they were.
  template <typename Make>
  std::pair<std::size_t, bool> emplace(Stripe& s, const K& key,
                                       std::size_t h, Make&& make) {
    Table& t = s.table;
    std::size_t i = 0;
    if (t.cap != 0) {
      i = probe(t, key, h);
      if (t.ctrl[i] != 0) return {i, false};
    }
    const std::size_t n = s.count.load(std::memory_order_relaxed) + 1;
    if (2 * n > t.cap) {
      grow(t);
      i = probe(t, key, h);
    }
    ::new (&t.vals[i]) V(make());
    ::new (&t.keys[i]) K(key);
    t.ctrl[i] = tag_of(h);
    s.count.store(n, std::memory_order_relaxed);
    return {i, true};
  }

  static std::size_t align_up(std::size_t n, std::size_t a) {
    return (n + a - 1) / a * a;
  }

  static Table allocate(std::size_t cap) {
    const std::size_t keys_at = align_up(cap, alignof(K));
    const std::size_t vals_at = align_up(keys_at + cap * sizeof(K), alignof(V));
    auto* block =
        static_cast<std::byte*>(::operator new(vals_at + cap * sizeof(V)));
    std::fill_n(block, cap, std::byte{0});
    return {cap, reinterpret_cast<std::uint8_t*>(block),
            reinterpret_cast<K*>(block + keys_at),
            reinterpret_cast<V*>(block + vals_at)};
  }

  static void release(Table& t) {
    vacate_all(t);
    ::operator delete(t.ctrl);
    t = Table{};
  }

  void grow(Table& t) const {
    Table old =
        std::exchange(t, allocate(t.cap == 0 ? initial_slots_ : 2 * t.cap));
    for (std::size_t j = 0; j < old.cap; ++j) {
      if (old.ctrl[j] == 0) continue;
      const std::size_t i = probe(t, old.keys[j], hash_of(old.keys[j]));
      t.ctrl[i] = old.ctrl[j];
      ::new (&t.keys[i]) K(std::move(old.keys[j]));
      ::new (&t.vals[i]) V(std::move(old.vals[j]));
    }
    release(old);
  }

  // Backward-shift deletion: each later entry of the probe chain whose home
  // does not lie cyclically in (hole, j] moves back into the hole, so every
  // remaining key stays reachable from its home without tombstones.
  static void erase_at(Table& t, std::size_t hole) {
    const std::size_t m = t.cap - 1;
    for (std::size_t j = (hole + 1) & m; t.ctrl[j] != 0; j = (j + 1) & m) {
      const std::size_t home = home_of(hash_of(t.keys[j]), t.cap);
      if (((j - home) & m) < ((j - hole) & m)) continue;
      t.ctrl[hole] = t.ctrl[j];
      t.keys[hole] = std::move(t.keys[j]);
      t.vals[hole] = std::move(t.vals[j]);
      hole = j;
    }
    vacate(t, hole);
  }

  static void vacate(Table& t, std::size_t i) {
    t.ctrl[i] = 0;
    std::destroy_at(&t.keys[i]);
    std::destroy_at(&t.vals[i]);
  }

  static void vacate_all(Table& t) {
    for (std::size_t i = 0; i < t.cap; ++i) {
      if (t.ctrl[i] != 0) vacate(t, i);
    }
  }

  std::size_t mask_;
  std::size_t initial_slots_;
  std::vector<Stripe> stripes_;
};

}  // namespace semlock::adt
