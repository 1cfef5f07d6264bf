#include "sim/event_scheduler.hpp"

#include <algorithm>

namespace tr::sim {

void EventScheduler::reset(double bucket_width, int bucket_count) {
  TR_ASSERT(bucket_count > 0 && bucket_width > 0.0);
  head_.assign(static_cast<std::size_t>(bucket_count), nil);
  bucket_count_ = bucket_count;
  slot_.clear();
  link_.clear();
  free_head_ = nil;
  bucket_events_ = 0;
  cursor_ = 0;
  width_ = bucket_width;
  inv_width_ = 1.0 / bucket_width;
  window_start_ = 0.0;
  window_end_ = bucket_width * static_cast<double>(bucket_count);
  heap_key_.clear();
  heap_payload_.clear();
  peeked_bucket_ = -1;
}

void EventScheduler::reserve(std::size_t near_events,
                             std::size_t far_events) {
  slot_.reserve(near_events);
  link_.reserve(near_events);
  heap_key_.reserve(far_events);
  heap_payload_.reserve(far_events);
}

std::size_t EventScheduler::allocated_bytes() const noexcept {
  return slot_.capacity() * sizeof(Event) +
         link_.capacity() * sizeof(std::int32_t) +
         head_.capacity() * sizeof(std::int32_t) +
         heap_key_.capacity() * sizeof(Key) +
         heap_payload_.capacity() * sizeof(std::uint32_t);
}

void EventScheduler::heap_push(double time, std::uint64_t order,
                               std::uint32_t payload) {
  heap_key_.push_back(Key{time, order});
  heap_payload_.push_back(payload);
  std::size_t child = heap_key_.size() - 1;
  while (child > 0) {
    const std::size_t parent = (child - 1) / 2;
    const bool less =
        heap_key_[child].time != heap_key_[parent].time
            ? heap_key_[child].time < heap_key_[parent].time
            : heap_key_[child].order < heap_key_[parent].order;
    if (!less) break;
    std::swap(heap_key_[child], heap_key_[parent]);
    std::swap(heap_payload_[child], heap_payload_[parent]);
    child = parent;
  }
}

void EventScheduler::heap_pop() {
  const std::size_t n = heap_key_.size() - 1;
  heap_key_[0] = heap_key_[n];
  heap_payload_[0] = heap_payload_[n];
  heap_key_.pop_back();
  heap_payload_.pop_back();
  std::size_t parent = 0;
  for (;;) {
    std::size_t best = parent;
    for (std::size_t child = 2 * parent + 1;
         child < n && child <= 2 * parent + 2; ++child) {
      const bool less = heap_key_[child].time != heap_key_[best].time
                            ? heap_key_[child].time < heap_key_[best].time
                            : heap_key_[child].order < heap_key_[best].order;
      if (less) best = child;
    }
    if (best == parent) break;
    std::swap(heap_key_[parent], heap_key_[best]);
    std::swap(heap_payload_[parent], heap_payload_[best]);
    parent = best;
  }
}

void EventScheduler::advance_window() {
  // Called with every bucket empty: all pending events live in the heap
  // and every one of them is at or beyond window_end_ (pushes inside the
  // window go to buckets, and earlier slides drained everything nearer).
  const double top = heap_key_[0].time;
  const double span = width_ * static_cast<double>(bucket_count_);
  double next_start = window_end_;
  if (top >= next_start + span) next_start = top;  // skip the empty gap
  window_start_ = next_start;
  window_end_ = next_start + span;
  cursor_ = 0;
  bool drained = false;
  while (!heap_key_.empty() && heap_key_[0].time < window_end_) {
    bucket_insert(
        Event{heap_key_[0].time, heap_key_[0].order, heap_payload_[0]});
    heap_pop();
    drained = true;
  }
  if (!drained) {
    // `top` is so large that adding the span was absorbed by FP rounding
    // (window_end_ == window_start_). Bucket the heap minimum directly:
    // ordering is unaffected (it is the global minimum) and peek
    // terminates; equal-time companions follow one per advance.
    bucket_insert(
        Event{heap_key_[0].time, heap_key_[0].order, heap_payload_[0]});
    heap_pop();
  }
}

void EventScheduler::bucket_insert(const Event& ev) {
  std::int32_t slot;
  if (free_head_ != nil) {
    slot = free_head_;
    free_head_ = link_[static_cast<std::size_t>(slot)];
    slot_[static_cast<std::size_t>(slot)] = ev;
  } else {
    slot = static_cast<std::int32_t>(slot_.size());
    slot_.push_back(ev);
    link_.push_back(nil);
  }
  std::int32_t& head = head_[bucket_index(ev.time)];
  link_[static_cast<std::size_t>(slot)] = head;
  head = slot;
  ++bucket_events_;
}

void EventScheduler::push(double time, std::uint64_t order,
                          std::uint32_t payload) {
  peeked_bucket_ = -1;
  if (time >= window_end_) {
    heap_push(time, order, payload);
    return;
  }
  // The engine never schedules into the past, so `time` lies at or after
  // the cursor bucket and the in-order pop invariant holds.
  bucket_insert(Event{time, order, payload});
}

bool EventScheduler::peek(Event& out) {
  for (;;) {
    while (cursor_ < bucket_count_) {
      const std::int32_t head = head_[static_cast<std::size_t>(cursor_)];
      if (head != nil) {
        std::int32_t best = head;
        std::int32_t best_prev = nil;
        std::int32_t prev = head;
        for (std::int32_t walk = link_[static_cast<std::size_t>(head)];
             walk != nil; walk = link_[static_cast<std::size_t>(walk)]) {
          if (slot_[static_cast<std::size_t>(walk)].before(
                  slot_[static_cast<std::size_t>(best)])) {
            best = walk;
            best_prev = prev;
          }
          prev = walk;
        }
        out = slot_[static_cast<std::size_t>(best)];
        peeked_bucket_ = cursor_;
        peeked_slot_ = best;
        peeked_prev_ = best_prev;
        return true;
      }
      ++cursor_;
    }
    if (heap_key_.empty()) return false;
    advance_window();
  }
}

void EventScheduler::pop() {
  TR_ASSERT(peeked_bucket_ >= 0);
  const std::size_t slot = static_cast<std::size_t>(peeked_slot_);
  if (peeked_prev_ == nil) {
    head_[static_cast<std::size_t>(peeked_bucket_)] = link_[slot];
  } else {
    link_[static_cast<std::size_t>(peeked_prev_)] = link_[slot];
  }
  link_[slot] = free_head_;
  free_head_ = peeked_slot_;
  --bucket_events_;
  peeked_bucket_ = -1;
}

}  // namespace tr::sim
