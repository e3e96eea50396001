// Striped counter storage: one std::atomic<uint32_t> per canonical mode, the
// paper's Fig. 20 layout, plus BRAVO/SNZI-style striped banks for the
// self-commuting modes (see storage_policy.h for the policy overview,
// util/striped_counter.h for the bank).
//
// Self-commuting modes are exactly the modes whose holders never exclude
// each other, so their counter line is pure mechanism overhead worth
// de-sharing. Self-conflicting modes stay on their plain counter — their
// holders serialize anyway, and the prev==1 release test is cheaper than a
// stripe sum. Striped modes keep their plain counter (it stays 0 and doubles
// as the mode's stable identity for DCT schedule points) but count holds in
// the bank. With ModeTableConfig::counter_stripes = 0 there is no bank and
// every mode counts on its plain counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "semlock/mode_table.h"
#include "util/striped_counter.h"

namespace semlock {

class StripedStorage {
 public:
  static constexpr bool kPacked = false;

  explicit StripedStorage(const ModeTable& table)
      : num_modes_(table.num_modes()),
        counters_(std::make_unique<std::atomic<std::uint32_t>[]>(
            static_cast<std::size_t>(table.num_modes()))),
        striped_row_(static_cast<std::size_t>(table.num_modes()), -1) {
    if (table.config().counter_stripes > 0) {
      std::uint32_t rows = 0;
      for (int m = 0; m < table.num_modes(); ++m) {
        if (table.commutes(m, m)) {
          striped_row_[static_cast<std::size_t>(m)] =
              static_cast<std::int32_t>(rows++);
        }
      }
      if (rows > 0) {
        bank_ = std::make_unique<util::StripedCounterBank>(
            rows,
            static_cast<std::uint32_t>(table.config().counter_stripes));
      }
    }
  }

  StripedStorage(StripedStorage&&) noexcept = default;

  std::uint32_t holder_count(int mode, std::memory_order order) const {
    const std::int32_t row = striped_row_[static_cast<std::size_t>(mode)];
    if (row >= 0) return bank_->sum(static_cast<std::uint32_t>(row), order);
    return counter(mode).load(order);
  }

  void increment(int mode, std::memory_order order) {
    const std::int32_t row = striped_row_[static_cast<std::size_t>(mode)];
    if (row >= 0) {
      bank_->local_slot(static_cast<std::uint32_t>(row)).fetch_add(1, order);
    } else {
      counter(mode).fetch_add(1, order);
    }
  }

  // Releases one hold; true when the caller must wake the partition (this
  // was the mode's last hold and the wait policy can park).
  bool release_one(int mode, bool can_park) {
    const std::int32_t row = striped_row_[static_cast<std::size_t>(mode)];
    if (row < 0) {
      const std::uint32_t prev =
          counter(mode).fetch_sub(1, std::memory_order_release);
      return can_park && prev == 1;
    }
    if (!can_park) {
      // Nobody can be parked: skip the last-hold test and keep the release
      // a single RMW, mirroring the unstriped path under SpinYield.
      bank_->local_slot(static_cast<std::uint32_t>(row))
          .fetch_sub(1, std::memory_order_release);
      return false;
    }
    // The striped last-hold test: seq_cst decrement, then seq_cst sum.
    // Against a concurrent releaser on another stripe this is Dekker: in
    // the seq_cst total order one of the two decrements comes second, and
    // the sum of that releaser sees both, so at least one of two racing
    // final releasers observes the zero and wakes the partition.
    bank_->local_slot(static_cast<std::uint32_t>(row))
        .fetch_sub(1, std::memory_order_seq_cst);
    return bank_->sum(static_cast<std::uint32_t>(row),
                      std::memory_order_seq_cst) == 0;
  }

  // Stable identity of the mode's synchronization object for DCT schedule
  // points.
  const void* dct_id(int mode) const { return &counter(mode); }

  bool mode_striped(int mode) const {
    return striped_row_[static_cast<std::size_t>(mode)] >= 0;
  }
  std::uint32_t stripes() const { return bank_ ? bank_->stripes() : 1; }

  // Heap bytes owned by this storage (footprint_bytes accounting).
  std::size_t heap_bytes() const {
    std::size_t total = static_cast<std::size_t>(num_modes_) *
                        sizeof(std::atomic<std::uint32_t>);
    total += striped_row_.capacity() * sizeof(std::int32_t);
    if (bank_) total += sizeof(util::StripedCounterBank) + bank_->heap_bytes();
    return total;
  }

 private:
  std::atomic<std::uint32_t>& counter(int mode) {
    return counters_[static_cast<std::size_t>(mode)];
  }
  const std::atomic<std::uint32_t>& counter(int mode) const {
    return counters_[static_cast<std::size_t>(mode)];
  }

  int num_modes_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> counters_;
  // striped_row_[mode] is the mode's row in bank_, or -1 for plain modes.
  std::vector<std::int32_t> striped_row_;
  std::unique_ptr<util::StripedCounterBank> bank_;
};

}  // namespace semlock
