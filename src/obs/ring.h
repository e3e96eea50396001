// Per-thread lock-free SPSC record ring with overwrite-oldest semantics: the
// storage of the event stream (obs/event.h, 4 words a record).
//
// Exactly one thread appends (its own records); any thread may take a
// snapshot (the exporter at dump time, the stall watchdog mid-run for
// forensics). The writer never waits and never fails: when the ring is full
// it overwrites the oldest slot, so a ring always holds the *last* capacity
// records — what a post-mortem wants.
//
// Concurrent-reader correctness without a lock: slots are relaxed atomics
// (compiling to plain stores on x86/ARM, and keeping TSan happy), the head
// index is published with release ordering after the slot words are written,
// and the reader discards any record whose slot could have been reused
// between its two head reads. A snapshot is therefore always a consistent
// suffix of the stream, merely possibly shorter than `capacity` while the
// writer is racing ahead.
//
// A Record is a fixed-width value: `Record::kWords` 64-bit words, written by
// `to_words()` and read back by `Record::from_words()` — the same conversion
// the binary dump (obs/export.h) uses, so a dump is a straight copy of ring
// contents.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace semlock::obs {

template <class Record>
class Ring {
 public:
  static constexpr std::size_t kWords = Record::kWords;
  // Capacity is rounded up to a power of two (masking beats modulo on the
  // hot append path). Bounded below so the forensic tail is never trivial.
  static constexpr std::uint32_t kMinCapacity = 64;

  explicit Ring(std::uint32_t min_capacity)
      : capacity_(std::bit_ceil(
            min_capacity < kMinCapacity ? kMinCapacity : min_capacity)),
        mask_(capacity_ - 1),
        words_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
            capacity_) * kWords]()) {}

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  std::uint32_t capacity() const noexcept { return capacity_; }

  // Total records ever appended (not the count currently retained).
  std::uint64_t appended() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  // Writer side; single-threaded by construction (one ring per thread).
  void append(const Record& r) noexcept {
    const std::uint64_t index = head_.load(std::memory_order_relaxed);
    std::uint64_t w[kWords];
    r.to_words(w);
    std::atomic<std::uint64_t>* slot =
        words_.get() + static_cast<std::size_t>(index & mask_) * kWords;
    for (std::size_t i = 0; i < kWords; ++i) {
      slot[i].store(w[i], std::memory_order_relaxed);
    }
    head_.store(index + 1, std::memory_order_release);
  }

  // Reader side: the retained records, oldest first. Safe concurrently with
  // the writer; records whose slot may have been recycled mid-read are
  // dropped rather than returned torn.
  std::vector<Record> snapshot() const {
    const std::uint64_t end = head_.load(std::memory_order_acquire);
    const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
    std::vector<Record> out;
    out.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::atomic<std::uint64_t>* slot =
          words_.get() + static_cast<std::size_t>(i & mask_) * kWords;
      std::uint64_t w[kWords];
      for (std::size_t k = 0; k < kWords; ++k) {
        w[k] = slot[k].load(std::memory_order_relaxed);
      }
      out.push_back(Record::from_words(w));
    }
    // Re-read the head: the writer may have lapped us. A record at index i
    // is trustworthy only if its slot cannot have been rewritten, i.e. every
    // index the writer has started since (head2 is the index being written
    // *now*) maps to a later slot: i > head2 - capacity.
    const std::uint64_t head2 = head_.load(std::memory_order_acquire);
    const std::uint64_t safe_begin =
        head2 >= capacity_ ? head2 - capacity_ + 1 : 0;
    if (safe_begin > begin) {
      const std::uint64_t drop = safe_begin - begin;
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(
                                  drop < out.size() ? drop : out.size()));
    }
    return out;
  }

 private:
  std::uint32_t capacity_;
  std::uint32_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

}  // namespace semlock::obs
