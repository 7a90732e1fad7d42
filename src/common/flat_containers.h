#ifndef DSKS_COMMON_FLAT_CONTAINERS_H_
#define DSKS_COMMON_FLAT_CONTAINERS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"

/// Cache-friendly containers for the query hot path.
///
/// The node/edge/object ids in this codebase are dense 32-bit integers, and
/// the per-query state keyed by them (tentative distances, loaded edges,
/// object best-distances, distance fields) is built up and torn down once per
/// query. `std::unordered_map` pays a heap allocation per node plus a pointer
/// chase per probe for that; the two containers here avoid both:
///
///  * `FlatHashMap` — open addressing with linear probing over a single
///    contiguous slot array (power-of-two capacity, multiplicative hashing).
///    `clear()` keeps the capacity, so a map owned by long-lived scratch
///    (see core/query_context.h) stops allocating after the first few
///    queries.
///  * `EpochArray` — a dense array with a per-slot epoch stamp. `Reset()` is
///    O(1) (bump the epoch) instead of O(capacity), which is what makes a
///    num_nodes-sized array per *query* affordable: clearing 7k doubles per
///    query would cost more than the queries themselves.
///  * `InlineArray` — per-call scratch sized by a query's keyword count,
///    held inside the object (on the stack for a local) up to a fixed
///    bound, so the common case allocates nothing.
namespace dsks {

/// Open-addressed hash map for trivially-copyable integer keys.
///
/// Deliberately minimal: the subset of the `unordered_map` interface the
/// query engine uses (`try_emplace`, `find`, `at`, `count`, `erase`,
/// `operator[]`, range-for), with `clear()` retaining capacity. Deletion
/// uses backward-shift so probe chains never accumulate tombstones.
template <typename K, typename V>
class FlatHashMap {
 public:
  using value_type = std::pair<K, V>;

  class iterator {
   public:
    iterator(FlatHashMap* map, size_t index) : map_(map), index_(index) {
      SkipEmpty();
    }
    value_type& operator*() const { return map_->slots_[index_]; }
    value_type* operator->() const { return &map_->slots_[index_]; }
    iterator& operator++() {
      ++index_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const iterator& o) const { return index_ == o.index_; }
    bool operator!=(const iterator& o) const { return index_ != o.index_; }

   private:
    void SkipEmpty() {
      while (index_ < map_->slots_.size() && !map_->full_[index_]) {
        ++index_;
      }
    }
    FlatHashMap* map_;
    size_t index_;
  };

  class const_iterator {
   public:
    const_iterator(const FlatHashMap* map, size_t index)
        : map_(map), index_(index) {
      SkipEmpty();
    }
    const value_type& operator*() const { return map_->slots_[index_]; }
    const value_type* operator->() const { return &map_->slots_[index_]; }
    const_iterator& operator++() {
      ++index_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return index_ == o.index_;
    }
    bool operator!=(const const_iterator& o) const {
      return index_ != o.index_;
    }

   private:
    void SkipEmpty() {
      while (index_ < map_->slots_.size() && !map_->full_[index_]) {
        ++index_;
      }
    }
    const FlatHashMap* map_;
    size_t index_;
  };

  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  /// Drops all entries but keeps the slot array — the point of pooling
  /// these maps in per-thread scratch.
  void clear() {
    if (size_ != 0) {
      std::fill(full_.begin(), full_.end(), uint8_t{0});
      size_ = 0;
    }
  }

  void reserve(size_t n) {
    // Grow so that n entries stay under the load factor.
    size_t needed = kMinCapacity;
    while (needed * 3 / 4 < n) {
      needed *= 2;
    }
    if (needed > slots_.size()) {
      Rehash(needed);
    }
  }

  V* find(K key) {
    if (slots_.empty()) {
      return nullptr;
    }
    size_t i = Hash(key) & mask_;
    while (full_[i]) {
      if (slots_[i].first == key) {
        return &slots_[i].second;
      }
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  const V* find(K key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  size_t count(K key) const { return find(key) ? 1 : 0; }
  bool contains(K key) const { return find(key) != nullptr; }

  V& at(K key) {
    V* v = find(key);
    DSKS_CHECK_MSG(v != nullptr, "FlatHashMap::at on missing key");
    return *v;
  }
  const V& at(K key) const {
    const V* v = find(key);
    DSKS_CHECK_MSG(v != nullptr, "FlatHashMap::at on missing key");
    return *v;
  }

  /// Inserts {key, V(args...)} if absent. Returns {&value, inserted}.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(K key, Args&&... args) {
    GrowIfNeeded();
    size_t i = Hash(key) & mask_;
    while (full_[i]) {
      if (slots_[i].first == key) {
        return {&slots_[i].second, false};
      }
      i = (i + 1) & mask_;
    }
    full_[i] = 1;
    slots_[i].first = key;
    slots_[i].second = V(std::forward<Args>(args)...);
    ++size_;
    return {&slots_[i].second, true};
  }

  V& operator[](K key) { return *try_emplace(key).first; }

  void insert_or_assign(K key, V value) {
    auto [v, inserted] = try_emplace(key);
    *v = std::move(value);
  }

  /// Removes `key` if present; returns the number of entries removed (0/1).
  /// Backward-shift deletion: entries after the hole whose probe chain
  /// passes through it are moved back, so lookups never need tombstones.
  size_t erase(K key) {
    if (slots_.empty()) {
      return 0;
    }
    size_t i = Hash(key) & mask_;
    while (full_[i]) {
      if (slots_[i].first == key) {
        size_t hole = i;
        size_t j = (i + 1) & mask_;
        while (full_[j]) {
          const size_t home = Hash(slots_[j].first) & mask_;
          // Move j back iff the hole lies cyclically between home and j.
          if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = std::move(slots_[j]);
            hole = j;
          }
          j = (j + 1) & mask_;
        }
        full_[hole] = 0;
        --size_;
        return 1;
      }
      i = (i + 1) & mask_;
    }
    return 0;
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, slots_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

 private:
  static constexpr size_t kMinCapacity = 16;

  static size_t Hash(K key) {
    // Fibonacci (multiplicative) hashing; the high bits end up well mixed,
    // so fold them down before masking.
    uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h >> 32 ^ h);
  }

  void GrowIfNeeded() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<uint8_t> old_full = std::move(full_);
    slots_.assign(new_capacity, value_type());
    full_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (old_full[i]) {
        size_t j = Hash(old_slots[i].first) & mask_;
        while (full_[j]) {
          j = (j + 1) & mask_;
        }
        full_[j] = 1;
        slots_[j] = std::move(old_slots[i]);
        ++size_;
      }
    }
  }

  std::vector<value_type> slots_;
  std::vector<uint8_t> full_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Dense array of T keyed by a small integer (node id), with O(1) reset.
///
/// Each slot carries the epoch at which it was last written; `Reset()` bumps
/// the current epoch so every slot instantly reads as "unset". Epochs are
/// 32-bit; on wrap the stamp array is cleared once so stale slots from
/// 4 billion resets ago cannot alias the fresh epoch.
template <typename T>
class EpochArray {
 public:
  /// Ensures capacity for indices [0, n). Existing stamps are preserved;
  /// growth mid-epoch is safe (new slots start at epoch 0 and the live
  /// epoch is >= 1).
  void EnsureSize(size_t n) {
    if (values_.size() < n) {
      values_.resize(n);
      stamps_.resize(n, 0);
    }
  }

  size_t capacity() const { return values_.size(); }

  /// Invalidates every slot. O(1) except on 32-bit epoch wrap.
  void Reset() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool Contains(size_t i) const {
    return i < stamps_.size() && stamps_[i] == epoch_;
  }

  /// Pointer to the value set this epoch, or nullptr.
  T* Find(size_t i) {
    return Contains(i) ? &values_[i] : nullptr;
  }
  const T* Find(size_t i) const {
    return Contains(i) ? &values_[i] : nullptr;
  }

  /// Value set this epoch; must exist.
  const T& Get(size_t i) const {
    DSKS_DCHECK(Contains(i));
    return values_[i];
  }

  T& Set(size_t i, T value) {
    DSKS_DCHECK_MSG(i < values_.size(), "EpochArray index out of range");
    stamps_[i] = epoch_;
    values_[i] = std::move(value);
    return values_[i];
  }

 private:
  std::vector<T> values_;
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 1;
};

/// `n` value-initialized T: inline in the object when n <= N, else in one
/// heap array — the only allocation it ever makes, and only above the
/// bound. Callers size N to cover every realistic query and name the
/// fallback in DESIGN.md "Hot-path memory model".
template <typename T, size_t N>
class InlineArray {
 public:
  explicit InlineArray(size_t n) : size_(n) {
    if (n > N) {
      heap_ = std::make_unique<T[]>(n);
    }
  }

  InlineArray(const InlineArray&) = delete;
  InlineArray& operator=(const InlineArray&) = delete;

  size_t size() const { return size_; }
  T* data() { return heap_ ? heap_.get() : inline_; }
  T& operator[](size_t i) {
    DSKS_DCHECK(i < size_);
    return data()[i];
  }
  std::span<T> span() { return {data(), size_}; }

 private:
  size_t size_;
  T inline_[N] = {};
  std::unique_ptr<T[]> heap_;
};

/// Binary min-heap over a reusable vector; `clear()` keeps capacity.
/// Ordering is `operator<` on T — for std::pair that is lexicographic, which
/// is exactly the (distance, id) tie-break the search algorithms rely on.
template <typename T>
class ReusableMinHeap {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void clear() { heap_.clear(); }
  void reserve(size_t n) { heap_.reserve(n); }

  const T& top() const {
    DSKS_DCHECK(!heap_.empty());
    return heap_.front();
  }

  /// Read-only view of the backing array in heap order (front = minimum,
  /// shallow layers ≈ the next elements to pop). Lets expansion loops
  /// sample the frontier for page prefetching without mutating the heap.
  const std::vector<T>& storage() const { return heap_; }

  void push(T value) {
    heap_.push_back(std::move(value));
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (heap_[i] < heap_[parent]) {
        std::swap(heap_[i], heap_[parent]);
        i = parent;
      } else {
        break;
      }
    }
  }

  void pop() {
    DSKS_DCHECK(!heap_.empty());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    size_t i = 0;
    const size_t n = heap_.size();
    for (;;) {
      const size_t l = 2 * i + 1;
      const size_t r = l + 1;
      size_t smallest = i;
      if (l < n && heap_[l] < heap_[smallest]) {
        smallest = l;
      }
      if (r < n && heap_[r] < heap_[smallest]) {
        smallest = r;
      }
      if (smallest == i) {
        break;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

 private:
  std::vector<T> heap_;
};

}  // namespace dsks

#endif  // DSKS_COMMON_FLAT_CONTAINERS_H_
