#ifndef FELA_SIM_EVENT_QUEUE_H_
#define FELA_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/types.h"

namespace fela::sim {

/// Time-ordered queue of callbacks. Ties are broken by insertion
/// sequence number so simulation runs are fully deterministic.
///
/// Events live in a slab of pooled slots; the heap holds only 16-byte
/// POD entries of (time, key) where key packs the global insertion
/// sequence number over the slot index. The key doubles as the
/// `EventId` handle and as the liveness tag: a slot remembers the key
/// of its current occupant, so cancellation is one slab probe — O(1),
/// no hash set — and a handle for an event that already fired (or was
/// already cancelled) fails the key check instead of corrupting the
/// live count. Sequence numbers are never reused, so recycling a slot
/// can never revive a stale handle. Steady-state Push/Pop reuses freed
/// slots and the inline buffer of `EventFn`, so it performs no
/// allocations once the vectors are warm.
///
/// The slab is segmented (power-of-two segments, geometric growth)
/// rather than one contiguous vector: growing appends a segment and
/// never relocates existing slots, so no stored `EventFn` is ever
/// moved by slab growth (each such move is an indirect call through
/// the callable's ops table — the dominant cost of a vector-backed
/// slab under churn).
///
/// The heap is quaternary, not binary: half the sift-down depth, and a
/// node's four 16-byte children span exactly one cache line, so each
/// level costs one line fill instead of two. Pop order is the strict
/// (time, key) total order either way — heap arity cannot perturb the
/// simulation transcript.
///
/// Cancelled events are dropped lazily, but the heap is compacted
/// whenever dead entries outnumber live ones, so the footprint stays
/// proportional to the number of live events even under pathological
/// push/cancel churn (constantly re-armed retry timers).
///
/// A FIFO device (a GPU running kernels back to back, a NIC's outbound
/// link) schedules completions whose times never decrease. `PushAfter`
/// keeps such a device's queued completions out of the heap: each waits
/// in a chain behind the device's previous completion and enters the
/// heap only when that one pops. A chained event's (time, seq) key is
/// above its predecessor's, so the earliest pending event is always in
/// the heap and pop order is exactly what `Push` alone would give.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `fn` to fire at absolute time `when`. Returns a handle.
  EventId Push(SimTime when, EventFn fn);

  /// Enqueues `fn` to fire at `when`, which must be no earlier than the
  /// time of `prev`. While `prev` is pending (the liveness test Cancel
  /// uses) the new event waits behind it outside the heap, and from then
  /// on neither can be cancelled (Cancel fails a FELA_CHECK); otherwise
  /// this is Push. An event holds at most one successor, and Pop fails a
  /// FELA_CHECK on a successor whose time is before its predecessor's.
  EventId PushAfter(EventId prev, SimTime when, EventFn fn);

  /// Cancels a pending event in O(1); returns false if it already
  /// fired, was already cancelled, or the handle is unknown. The
  /// cancelled callback's captured state is released immediately.
  bool Cancel(EventId id);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Time of the earliest pending event. Requires !empty().
  SimTime PeekTime() const;

  /// Pops and returns the earliest event's (time, fn). Requires !empty().
  std::pair<SimTime, EventFn> Pop();

  // -- Introspection (tests and benches) ---------------------------------
  /// Heap entries including not-yet-swept cancelled ones. Bounded by
  /// ~2x size() via compaction; chained events wait outside the heap.
  size_t heap_entries() const { return heap_.size(); }
  /// Allocated slab slots (live + free-listed). Bounded by the high
  /// -water mark of concurrently pending events.
  size_t slab_slots() const { return slot_count_; }

 private:
  /// Key layout: (seq << kSlotBits) | slot. Comparing keys compares
  /// seq first — the deterministic tie-break — because seq occupies the
  /// high bits and is globally unique. seq starts at 1, so no valid key
  /// collides with kInvalidEventId; 38 bits of seq and 24 bits of slot
  /// allow ~2.7 * 10^11 events per queue and ~16M concurrently pending.
  /// The top two bits are never part of a key: a slot's stored key
  /// carries its chain flags there.
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (62 - kSlotBits);
  /// The occupant was chained by PushAfter.
  static constexpr uint64_t kChained = uint64_t{1} << 63;
  /// The occupant holds a chained successor, whose heap entry is
  /// next_[slot].
  static constexpr uint64_t kHasNext = uint64_t{1} << 62;
  static constexpr uint64_t kChainFlags = kChained | kHasNext;
  static_assert(kChainFlags == ~(~uint64_t{0} >> 2), "flags are the top bits");
  /// First slab segment holds 2^kSeg0Bits slots; segment m holds
  /// 2^(kSeg0Bits + m).
  static constexpr uint32_t kSeg0Bits = 6;

  struct alignas(64) Slot {
    /// Key of the current occupant, plus its chain flags; 0 when
    /// vacant. Any older handle (and heap entry) for this slot
    /// mismatches and is stale.
    uint64_t key = 0;
    EventFn fn;
  };
  // One slot per cache line: the slab access in Push/Pop/Cancel costs
  // exactly one line fill.
  static_assert(sizeof(Slot) == 64, "slot must fill one cache line");
  /// Heap entries store the event time as raw IEEE-754 bits: times are
  /// non-negative (Push checks), and for non-negative doubles the bit
  /// pattern orders exactly like the value (+inf = kNeverTime included),
  /// so (time, insertion-seq) lexicographic order — the simulation's
  /// deterministic event order — is one branchless 128-bit integer
  /// compare instead of a float compare plus a mispredict-prone
  /// tie-break branch.
  struct Entry {
    uint64_t when_bits;
    uint64_t key;
  };

  static uint64_t TimeBits(SimTime t) {
    // +0.0 folds a possible -0.0 to +0.0 so the two compare equal in
    // bit order just as they do numerically.
    return std::bit_cast<uint64_t>(t + 0.0);
  }
  static SimTime BitsTime(uint64_t bits) {
    return std::bit_cast<SimTime>(bits);
  }

  static unsigned __int128 Pack(const Entry& e) {
    return (static_cast<unsigned __int128>(e.when_bits) << 64) | e.key;
  }
  static bool Earlier(const Entry& a, const Entry& b) {
    return Pack(a) < Pack(b);
  }

  /// Maps a slot index to its (segment, offset): biasing by the first
  /// segment's size makes the segment index the bit width of the biased
  /// value, a couple of ALU ops plus one extra load off a tiny (and so
  /// always-hot) segment-pointer array.
  Slot& SlotAt(uint32_t slot) {
    const uint32_t j = slot + (1u << kSeg0Bits);
    const uint32_t k = static_cast<uint32_t>(std::bit_width(j)) - 1;
    return segs_[k - kSeg0Bits][j - (1u << k)];
  }
  const Slot& SlotAt(uint32_t slot) const {
    return const_cast<EventQueue*>(this)->SlotAt(slot);
  }

  /// True when `stored`, a slot's key with its chain flags, is `key`.
  static bool KeyMatches(uint64_t stored, uint64_t key) {
    return ((stored ^ key) << 2) == 0;  // shifts the flag bits out
  }

  bool EntryLive(const Entry& e) const {
    return KeyMatches(SlotAt(static_cast<uint32_t>(e.key & kSlotMask)).key,
                      e.key);
  }

  /// Appends a fresh segment; existing slots never move.
  void AddSegment();

  /// Moves `fn` into a free slot under a fresh key, tagged with `flags`,
  /// and counts it live. Returns the key; the caller files it in the
  /// heap or a chain.
  uint64_t Claim(SimTime when, EventFn& fn, uint64_t flags);

  // Quaternary-heap primitives over heap_.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  /// Removes the root, refills it from the back, restores heap order.
  void PopRoot();

  /// Drops cancelled entries from the head of the heap.
  void SkipDead();

  /// Rebuilds the heap without dead entries once they dominate.
  void MaybeCompact();

  /// Releases a slot back to the free list (its handle is now stale).
  void RetireSlot(Slot& s, uint32_t slot);

  std::vector<Entry> heap_;  // 4-ary min-heap, earliest at front
  std::vector<std::unique_ptr<Slot[]>> segs_;
  /// By slot: the heap entry of the occupant's chained successor, read
  /// only when the occupant's kHasNext flag is set. Sized by the first
  /// PushAfter that chains, so a queue that never chains never pays.
  std::vector<Entry> next_;
  std::vector<uint32_t> free_;
  uint32_t slot_count_ = 0;     // constructed slots across all segments
  uint32_t slot_capacity_ = 0;  // total slots the segments can hold
  uint64_t next_seq_ = 1;
  size_t size_ = 0;          // live (non-cancelled) events
  size_t dead_in_heap_ = 0;  // cancelled entries awaiting sweep/compaction
};

}  // namespace fela::sim

#endif  // FELA_SIM_EVENT_QUEUE_H_
