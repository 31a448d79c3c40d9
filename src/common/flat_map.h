#ifndef FELA_COMMON_FLAT_MAP_H_
#define FELA_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace fela::common {

/// A sorted-vector map: one contiguous allocation, O(log n) lookup, and
/// deterministic in-order iteration for free — the sorted key order
/// fela-lint's unordered-iter rule asks for, without a per-snapshot
/// copy. Replaces std::map<K, V> on hot paths whose keys arrive mostly
/// in increasing order (token ids are monotonic), where insert
/// degenerates to an amortized-O(1) push_back instead of a rebalancing
/// tree allocation.
///
/// Not a general-purpose map: erase is O(n) (it keeps the vector sorted
/// by shifting), so it fits small-to-medium live sets with high
/// insert/lookup churn — exactly the token-lease table's shape.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(size_t n) { entries_.reserve(n); }

  iterator find(const K& key) {
    iterator it = LowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    const_iterator it = LowerBound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }

  bool contains(const K& key) const { return find(key) != entries_.end(); }

  /// Inserts a default-constructed value if absent (std::map semantics).
  V& operator[](const K& key) {
    iterator it = LowerBound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, value_type{key, V{}});
    }
    return it->second;
  }

  /// Erases the entry if present; returns the number erased (0 or 1).
  size_t erase(const K& key) {
    iterator it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }

  iterator erase(iterator it) { return entries_.erase(it); }

 private:
  iterator LowerBound(const K& key) {
    // Monotonic keys append at the tail; test it before binary-searching.
    if (entries_.empty() || entries_.back().first < key) {
      return entries_.end();
    }
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator LowerBound(const K& key) const {
    if (entries_.empty() || entries_.back().first < key) {
      return entries_.end();
    }
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace fela::common

#endif  // FELA_COMMON_FLAT_MAP_H_
