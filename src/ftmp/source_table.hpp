// source_table.hpp — flat per-source containers for the per-message
// ordering path (docs/ORDERING.md, docs/BUFFERS.md).
//
// RMP hands each source's messages upward in source order and their
// Lamport timestamps strictly rise, so ROMP's pending set is a merge of
// per-source FIFOs, and the unstable set, LLFT's held set and RMP's
// retransmission store are per-source prefixes. These containers hold
// that state without a tree node per message:
//
//   * SourceTable<T> — a dense table of per-source slots, sorted by
//     ProcessorId (groups have a handful of members, so a binary search of
//     one contiguous vector beats hashing). Iteration is in id order.
//   * Ring<T> — a growable ring buffer: O(1) push/pop at both ends,
//     random access, and an O(n) ordered insert kept for inputs that break
//     the FIFO pattern. An empty Ring owns no storage, and a Ring that
//     drains to a quarter of its capacity halves it, so a queue that grew
//     during an outage gives the memory back once stability catches up.
//   * SeqWindow<T> — entries keyed by sequence number in a Ring indexed by
//     seq - base, with a sparse overflow for far-away seqs (RMP's
//     retransmission store and out-of-order buffer).
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace ftcorba::ftmp {

/// Growable ring buffer (power-of-two capacity over a std::vector).
/// T must be default-constructible and move-assignable; vacated slots are
/// reset to T{} so ref-counted payloads are released as soon as they leave.
template <typename T>
class Ring {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask()];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T v) {
    grow_if_full();
    buf_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }

  void push_front(T v) {
    grow_if_full();
    head_ = (head_ + buf_.size() - 1) & mask();
    buf_[head_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & mask();
    --size_;
    shrink_if_sparse();
  }

  void pop_back() {
    back() = T{};
    --size_;
    shrink_if_sparse();
  }

  /// Inserts `v` before position `i` (i <= size()), shifting the tail.
  void insert(std::size_t i, T v) {
    push_back(std::move(v));
    for (std::size_t j = size_ - 1; j > i; --j) std::swap((*this)[j], (*this)[j - 1]);
  }

  /// Removes position `i`, shifting the tail down.
  void erase(std::size_t i) {
    if (i == 0) {
      pop_front();
      return;
    }
    for (std::size_t j = i; j + 1 < size_; ++j) (*this)[j] = std::move((*this)[j + 1]);
    pop_back();
  }

  /// Removes every element for which `pred(element)` is true, keeping the
  /// order of the rest; `pred` may move from the elements it selects.
  /// Returns the number removed.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t r = 0; r < size_; ++r) {
      if (pred((*this)[r])) continue;
      if (kept != r) (*this)[kept] = std::move((*this)[r]);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    while (size_ > kept) pop_back();
    return removed;
  }

  /// Empties the ring and releases its storage.
  void clear() {
    buf_ = {};
    head_ = 0;
    size_ = 0;
  }

  /// Index of the first element whose `key(element)` is not less than `k`
  /// (the ring must be sorted by `key`). Checks the back first: ordered
  /// streams almost always append.
  template <typename K, typename KeyFn>
  [[nodiscard]] std::size_t lower_bound(const K& k, KeyFn key) const {
    if (size_ == 0 || key(back()) < k) return size_;
    std::size_t lo = 0;
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key((*this)[mid]) < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Inserts `v` in `key` order unless an element with an equal key is
  /// already present (then `v` is discarded and false returned). Appends in
  /// O(1) when `v` sorts last — the FIFO case.
  template <typename KeyFn>
  bool insert_sorted(T v, KeyFn key) {
    if (size_ == 0 || key(back()) < key(v)) {
      push_back(std::move(v));
      return true;
    }
    const std::size_t i = lower_bound(key(v), key);
    if (i < size_ && !(key(v) < key((*this)[i]))) return false;
    insert(i, std::move(v));
    return true;
  }

 private:
  [[nodiscard]] std::size_t mask() const { return buf_.size() - 1; }

  void grow_if_full() {
    if (size_ == buf_.size()) reallocate(buf_.empty() ? 4 : buf_.size() * 2);
  }

  // Small rings keep their storage: halving them would only churn.
  void shrink_if_sparse() {
    if (buf_.size() > 16 && size_ * 4 <= buf_.size()) reallocate(buf_.size() / 2);
  }

  void reallocate(std::size_t capacity) {
    std::vector<T> next(capacity);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Entries keyed by 64-bit sequence number (docs/BUFFERS.md). Seqs in
/// [base, base + n) live in a Ring indexed by seq - base, with empty slots
/// for holes; trimming pops the front. A seq that would stretch the window
/// by more than kMaxGap empty slots — a far-ahead or hostile sequence
/// number, or a stale one far below the base — goes to a sparse map
/// instead, so memory grows with the entries held, never with the size of
/// a gap. No key of the sparse map lies inside the window.
template <typename T>
class SeqWindow {
 public:
  static constexpr SeqNum kMaxGap = 256;

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] const T* find(SeqNum seq) const {
    if (seq >= base_ && seq - base_ < window_.size()) {
      const std::optional<T>& slot = window_[seq - base_];
      return slot ? &*slot : nullptr;
    }
    if (far_.empty()) return nullptr;
    auto it = far_.find(seq);
    return it == far_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] T* find(SeqNum seq) {
    return const_cast<T*>(std::as_const(*this).find(seq));
  }

  /// Stores `v` under `seq`; returns false (dropping `v`) if `seq` is
  /// already present. Offsets are taken from base so no sum can wrap.
  bool insert(SeqNum seq, T v) {
    std::optional<T>* slot = nullptr;
    if (seq >= base_ && seq - base_ < window_.size()) {
      slot = &window_[seq - base_];
      if (*slot) return false;
    } else if (!far_.empty() && far_.contains(seq)) {
      return false;
    } else if (window_.empty()) {
      base_ = seq;
      window_.push_back({});
      slot = &window_.back();
    } else if (seq > base_ && seq - base_ - window_.size() <= kMaxGap) {
      const SeqNum old_end = base_ + window_.size();
      while (window_.size() <= seq - base_) window_.push_back({});
      absorb_far(old_end, seq);
      slot = &window_.back();
    } else if (seq < base_ && base_ - seq - 1 <= kMaxGap) {
      const SeqNum old_base = base_;
      for (; base_ > seq; --base_) window_.push_front({});
      absorb_far(seq + 1, old_base);
      slot = &window_.front();
    } else {
      far_.emplace(seq, std::move(v));
      ++count_;
      return true;
    }
    *slot = std::move(v);
    ++count_;
    return true;
  }

  /// Smallest present seq >= from, if any.
  [[nodiscard]] std::optional<SeqNum> next_at_or_after(SeqNum from) const {
    std::optional<SeqNum> best;
    for (SeqNum i = from > base_ ? from - base_ : 0; i < window_.size(); ++i) {
      if (window_[i]) {
        best = base_ + i;
        break;
      }
    }
    if (!far_.empty()) {
      auto it = far_.lower_bound(from);
      if (it != far_.end() && (!best || it->first < *best)) best = it->first;
    }
    return best;
  }

  /// Removes every entry with seq <= up_to, handing each to `on_drop`
  /// first, plus any holes left at the front of the window. A window left
  /// empty releases its storage: an out-of-order buffer is empty almost
  /// all the time.
  template <typename F>
  void trim(SeqNum up_to, F on_drop) {
    while (!window_.empty() && (base_ <= up_to || !window_.front())) {
      if (window_.front()) {
        on_drop(*window_.front());
        --count_;
      }
      window_.pop_front();
      ++base_;
    }
    if (window_.empty()) window_.clear();
    if (far_.empty()) return;
    auto it = far_.begin();
    for (; it != far_.end() && it->first <= up_to; ++it) {
      on_drop(it->second);
      --count_;
    }
    far_.erase(far_.begin(), it);
  }

 private:
  /// Moves sparse entries in [lo, hi) into the (already widened) window.
  void absorb_far(SeqNum lo, SeqNum hi) {
    if (far_.empty()) return;
    auto it = far_.lower_bound(lo);
    while (it != far_.end() && it->first < hi) {
      window_[it->first - base_] = std::move(it->second);
      it = far_.erase(it);
    }
  }

  SeqNum base_ = 0;
  Ring<std::optional<T>> window_;
  std::map<SeqNum, T> far_;
  std::size_t count_ = 0;
};

/// Dense per-source table: one slot per ProcessorId, kept sorted by id in
/// one vector. Inserting a new id (operator[]) moves slots, so references
/// to slots do not survive an insertion; find() never inserts.
template <typename T>
class SourceTable {
 public:
  struct Entry {
    ProcessorId id{};
    T value{};
  };

  [[nodiscard]] T* find(ProcessorId id) {
    auto it = position(id);
    return it != entries_.end() && it->id == id ? &it->value : nullptr;
  }
  [[nodiscard]] const T* find(ProcessorId id) const {
    return const_cast<SourceTable*>(this)->find(id);
  }

  /// The slot for `id`, default-constructed on first use.
  T& operator[](ProcessorId id) {
    auto it = position(id);
    if (it == entries_.end() || it->id != id) it = entries_.insert(it, Entry{id, T{}});
    return it->value;
  }

  void erase(ProcessorId id) {
    auto it = position(id);
    if (it != entries_.end() && it->id == id) entries_.erase(it);
  }

  [[nodiscard]] auto begin() { return entries_.begin(); }
  [[nodiscard]] auto end() { return entries_.end(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

 private:
  [[nodiscard]] typename std::vector<Entry>::iterator position(ProcessorId id) {
    return std::lower_bound(entries_.begin(), entries_.end(), id,
                            [](const Entry& e, ProcessorId k) { return e.id < k; });
  }

  std::vector<Entry> entries_;
};

}  // namespace ftcorba::ftmp
