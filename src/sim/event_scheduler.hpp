#pragma once
// Indexed bucketed event scheduler for the switch-level simulation hot
// path (DESIGN.md Sec. 10.1).
//
// Replaces the std::priority_queue<Event> of the original engine while
// preserving its *exact* total order: events are popped in ascending
// (time, level, seq) order, where `level` is the delta-cycle
// levelization rank and `seq` a strictly increasing push counter, so the
// FIFO tie-break within a level is byte-identical to the reference loop
// and the rewritten engine stays a pure function of the seed.
//
// Layout: an event is a 16-byte ordering key — the raw double time plus
// one packed `level << 48 | seq` word, compared lexicographically — and
// a 4-byte payload (target index + event kind) that never participates
// in comparisons. Two lanes share that representation:
//
//  * Near lane: a calendar of `bucket_count` equal-width time buckets
//    covering one sliding window. Buckets are intrusive singly-linked
//    lists threaded through one contiguous slot pool (a freelist
//    recycles popped slots), so the lane owns exactly two flat arrays
//    regardless of how events distribute over buckets. Insertion links
//    into the bucket selected by `(time - window_start) * inv_width`
//    (O(1)); pop walks the cursor bucket for its minimum with the full
//    comparator. Bucket selection is monotone in `time` even under FP
//    rounding (same expression, fixed window origin), so (bucket,
//    in-bucket comparator) sorts identically to the global comparator.
//  * Far lane: events at or beyond the window end go to a binary
//    min-heap kept as parallel key/payload arrays (structure-of-arrays:
//    sift comparisons touch only the dense 16-byte keys). When the
//    window drains, it slides forward — jumping straight to the heap
//    top when everything is far future — and pulls the now-near events
//    into the calendar.
//
// Every pop comes from the calendar; the heap only holds events until
// the window reaches them. All storage is retained across reset() and
// growth tracks only the global high-water event population (never
// per-bucket tails), so a scheduler owned by a ReplicationScratch
// reaches an allocation-free steady state after warmup.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace tr::sim {

class EventScheduler {
public:
  /// Number of low bits of the packed order word holding `seq`. 48 bits
  /// of sequence leaves 16 for the level; the engine validates both
  /// ranges before selecting this scheduler.
  static constexpr int seq_bits = 48;
  static constexpr std::uint64_t max_seq = (std::uint64_t{1} << seq_bits) - 1;
  static constexpr int max_level = 0xFFFF;

  static std::uint64_t pack_order(int level, std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(static_cast<unsigned>(level))
            << seq_bits) |
           seq;
  }

  /// One scheduled event: the 16-byte comparable key plus the payload.
  struct Event {
    double time = 0.0;
    std::uint64_t order = 0;  ///< level << seq_bits | seq
    std::uint32_t payload = 0;

    bool before(const Event& rhs) const noexcept {
      if (time != rhs.time) return time < rhs.time;
      return order < rhs.order;
    }
  };

  /// Prepares for one replication starting at time 0. `bucket_count`
  /// and `bucket_width` must be > 0. Previously grown storage is kept,
  /// so steady-state reuse does not allocate.
  void reset(double bucket_width, int bucket_count);

  /// Grows the lanes to hold the given in-flight event counts without
  /// further allocation (capacity is retained across reset()).
  void reserve(std::size_t near_events, std::size_t far_events);

  void push(double time, std::uint64_t order, std::uint32_t payload);

  /// Locates the earliest event without removing it; false when empty.
  /// The cached location stays valid until the next push/pop/reset.
  bool peek(Event& out);

  /// Removes the event returned by the last successful peek.
  void pop();

  bool empty() const noexcept { return bucket_events_ + heap_key_.size() == 0; }
  std::size_t size() const noexcept { return bucket_events_ + heap_key_.size(); }

  /// Bytes of owned storage (capacity, not size): the scratch-arena
  /// high-water accounting of DESIGN.md Sec. 10.2.
  std::size_t allocated_bytes() const noexcept;

private:
  struct Key {
    double time;
    std::uint64_t order;
  };

  static constexpr std::int32_t nil = -1;

  std::size_t bucket_index(double time) const noexcept {
    std::size_t index =
        static_cast<std::size_t>((time - window_start_) * inv_width_);
    // FP guard only: monotone either way, see header comment.
    const std::size_t last = static_cast<std::size_t>(bucket_count_ - 1);
    return index > last ? last : index;
  }

  void bucket_insert(const Event& ev);
  void heap_push(double time, std::uint64_t order, std::uint32_t payload);
  void heap_pop();
  /// Slides (or jumps) the window so the heap top becomes near, then
  /// drains every now-near heap event into the calendar.
  void advance_window();

  // Near lane: per-bucket intrusive lists through one slot pool.
  std::vector<Event> slot_;        ///< slot pool
  std::vector<std::int32_t> link_; ///< forward link / freelist chain
  std::vector<std::int32_t> head_; ///< per bucket, nil when empty
  std::int32_t free_head_ = nil;
  int bucket_count_ = 0;
  int cursor_ = 0;
  double width_ = 0.0;
  double inv_width_ = 0.0;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
  std::size_t bucket_events_ = 0;

  // Far lane (structure-of-arrays binary min-heap).
  std::vector<Key> heap_key_;
  std::vector<std::uint32_t> heap_payload_;

  // peek() -> pop() handoff: -1 nothing peeked, else the bucket holding
  // the minimum, whose slot/predecessor allow unlinking.
  int peeked_bucket_ = -1;
  std::int32_t peeked_slot_ = nil;
  std::int32_t peeked_prev_ = nil;
};

}  // namespace tr::sim
