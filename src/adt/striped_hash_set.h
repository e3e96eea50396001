// StripedHashSet: linearizable hash set; structurally a StripedHashMap with
// empty values, kept separate for a Set-shaped API (the paper's Fig. 3 ADT).
#pragma once

#include <cstddef>

#include "adt/striped_hash_map.h"

namespace semlock::adt {

template <typename K, typename Hash = std::hash<K>>
class StripedHashSet {
 public:
  explicit StripedHashSet(std::size_t num_stripes = 64,
                          std::size_t initial_slots_per_stripe = 16)
      : map_(num_stripes, initial_slots_per_stripe) {}

  // Returns true if the element was newly added.
  bool add(const K& key) { return map_.put_if_absent(key, Unit{}); }
  // Returns true if the element was present.
  bool remove(const K& key) { return map_.remove(key); }
  bool contains(const K& key) const { return map_.contains_key(key); }
  std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&](const K& k, const Unit&) { fn(k); });
  }

 private:
  struct Unit {};
  StripedHashMap<K, Unit, Hash> map_;
};

}  // namespace semlock::adt
