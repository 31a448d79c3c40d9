#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fela::sim {

namespace {
/// Compaction only engages past this many heap entries: tiny queues are
/// cheaper to sweep lazily than to rebuild.
constexpr size_t kCompactMinEntries = 64;
}  // namespace

void EventQueue::AddSegment() {
  const uint32_t seg_size = 1u << (kSeg0Bits + segs_.size());
  segs_.push_back(std::make_unique<Slot[]>(seg_size));
  slot_capacity_ += seg_size;
}

void EventQueue::SiftUp(size_t i) {
  const Entry e = heap_[i];
  while (i != 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(size_t i) {
  const Entry e = heap_[i];
  const unsigned __int128 ep = Pack(e);
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    const size_t end = std::min(first + 4, n);
    // Branchless argmin over the (up to four) children: packed compares
    // lower to carry-flag arithmetic and conditional moves, avoiding a
    // mispredict-prone branch per child on randomly ordered times.
    size_t best = first;
    unsigned __int128 bp = Pack(heap_[first]);
    for (size_t c = first + 1; c < end; ++c) {
      const unsigned __int128 p = Pack(heap_[c]);
      const bool lt = p < bp;
      best = lt ? c : best;
      bp = lt ? p : bp;
    }
    if (ep <= bp) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::PopRoot() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

// Forced inline: Push and PushAfter each run it on their hot path, and
// the compiler would otherwise keep one out-of-line copy for both.
[[gnu::always_inline]] inline uint64_t EventQueue::Claim(SimTime when,
                                                         EventFn& fn,
                                                         uint64_t flags) {
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    FELA_CHECK_LT(slot_count_, static_cast<uint32_t>(kSlotMask));
    if (slot_count_ == slot_capacity_) AddSegment();
    slot = slot_count_++;
  }
  FELA_CHECK_LT(next_seq_, kMaxSeq);
  FELA_CHECK_GE(when, 0.0);  // bit-ordered times require non-negative
  const uint64_t key = (next_seq_++ << kSlotBits) | slot;
  Slot& s = SlotAt(slot);
  s.key = key | flags;
  s.fn = std::move(fn);
  ++size_;
  return key;
}

EventId EventQueue::Push(SimTime when, EventFn fn) {
  const uint64_t key = Claim(when, fn, 0);
  heap_.push_back(Entry{TimeBits(when), key});
  SiftUp(heap_.size() - 1);
  return key;
}

EventId EventQueue::PushAfter(EventId prev, SimTime when, EventFn fn) {
  // The liveness test Cancel makes, on the key without its chain flags.
  const uint64_t prev_slot = prev & kSlotMask;
  Slot* p = nullptr;
  if (prev != kInvalidEventId && prev_slot < slot_count_) {
    Slot& s = SlotAt(static_cast<uint32_t>(prev_slot));
    if (KeyMatches(s.key, prev)) p = &s;
  }
  // Slots never move, so `p` survives the slab growth Claim may do.
  const uint64_t key = Claim(when, fn, p == nullptr ? 0 : kChained);
  if (p == nullptr) {
    heap_.push_back(Entry{TimeBits(when), key});
    SiftUp(heap_.size() - 1);
  } else {
    FELA_CHECK((p->key & kHasNext) == 0) << "event already has a successor";
    p->key |= kHasNext;
    if (next_.size() < slot_capacity_) next_.resize(slot_capacity_);
    next_[prev_slot] = Entry{TimeBits(when), key};
  }
  return key;
}

bool EventQueue::Cancel(EventId id) {
  const uint64_t slot = id & kSlotMask;
  // A fired or already-cancelled event vacated its slot (and a reused
  // slot carries a fresh sequence number), so a stale handle fails the
  // key match here instead of eating a live event's count. The explicit
  // kInvalidEventId test keeps the null handle from matching a vacant
  // slot 0, whose key is also 0.
  if (id == kInvalidEventId || slot >= slot_count_) return false;
  Slot& s = SlotAt(static_cast<uint32_t>(slot));
  if (s.key != id) {
    // A pending event whose stored key carries chain flags is chained
    // or holds a successor: it has no heap entry to go stale, or its
    // successor would never reach the heap.
    FELA_CHECK(!KeyMatches(s.key, id))
        << "a chained event or one holding a successor cannot be cancelled";
    return false;
  }
  RetireSlot(s, static_cast<uint32_t>(slot));
  --size_;
  ++dead_in_heap_;
  MaybeCompact();
  return true;
}

void EventQueue::RetireSlot(Slot& s, uint32_t slot) {
  s.key = 0;    // invalidates the handle and any heap entry
  s.fn.Reset(); // release captured state eagerly
  free_.push_back(slot);
}

void EventQueue::SkipDead() {
  while (dead_in_heap_ != 0 && !heap_.empty() && !EntryLive(heap_.front())) {
    PopRoot();
    --dead_in_heap_;
  }
}

void EventQueue::MaybeCompact() {
  if (heap_.size() < kCompactMinEntries || dead_in_heap_ * 2 <= heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !EntryLive(e); }),
              heap_.end());
  // Floyd heap construction: sift down every internal node, deepest
  // first. Internal nodes are 0 .. parent-of-last.
  const size_t n = heap_.size();
  if (n > 1) {
    for (size_t i = (n - 2) / 4 + 1; i-- > 0;) SiftDown(i);
  }
  dead_in_heap_ = 0;
}

SimTime EventQueue::PeekTime() const {
  auto* self = const_cast<EventQueue*>(this);
  self->SkipDead();
  FELA_CHECK(!heap_.empty());
  return BitsTime(heap_.front().when_bits);
}

std::pair<SimTime, EventFn> EventQueue::Pop() {
  SkipDead();
  FELA_CHECK(!heap_.empty());
  const Entry top = heap_.front();
  const uint32_t slot = static_cast<uint32_t>(top.key & kSlotMask);
  Slot& s = SlotAt(slot);
  // Pull the slot's cache line in while the sift-down below runs; the
  // slab access pattern is effectively random, so this overlaps the
  // line fill with heap work instead of stalling on it afterwards.
  __builtin_prefetch(&s, /*rw=*/1);
  PopRoot();
  if ((s.key & kHasNext) != 0) {
    // The successor enters the heap now. Its key is above top's, so
    // every chained event stays behind an earlier one in the heap and
    // the heap minimum is the global one.
    const Entry next = next_[slot];
    FELA_CHECK_GE(next.when_bits, top.when_bits)
        << "PushAfter time before its predecessor's";
    heap_.push_back(next);
    SiftUp(heap_.size() - 1);
  }
  std::pair<SimTime, EventFn> out{BitsTime(top.when_bits), std::move(s.fn)};
  RetireSlot(s, slot);
  --size_;
  return out;
}

}  // namespace fela::sim
