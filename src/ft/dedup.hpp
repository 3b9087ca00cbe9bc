// dedup.hpp — duplicate detection and suppression (§4): with object
// replication, every replica of a client group multicasts the same request
// (same connection id, same request number), and every replica of the
// server group multicasts the same reply. Receivers must process exactly
// one copy. The ⟨connection id, request number⟩ pair is unique per
// invocation, and requests/replies are distinguished by direction.
//
// State layout. Request numbers rise over a connection, so each connection
// keeps a bit window: two bits (request, reply) per request number above a
// base, 32 numbers per 64-bit word. A number more than kMaxGap past the
// window's end (far ahead or hostile), or below its base, goes to a small
// sparse set instead, so memory grows with the numbers seen, never with the
// size of a gap. When the sparse numbers within kMaxGap below a new one
// outnumber the window's, the traffic has moved away from the window (say, a
// hostile first number anchored it): the window's numbers move to the sparse
// set and the window re-anchors on that cluster.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/metrics.hpp"

namespace ftcorba::ft {

/// Which half of an invocation a message carries.
enum class MessageKind : std::uint8_t { kRequest = 0, kReply = 1 };

/// Counters for tests and the E6 bench.
struct DedupStats {
  std::uint64_t accepted = 0;
  std::uint64_t suppressed = 0;
};

/// Tracks ⟨connection, request number, kind⟩ triples and accepts only the
/// first occurrence of each. Old entries are reclaimed per connection once
/// the application declares a low-water mark (request numbers are
/// monotonically increasing over a connection, §4).
class DuplicateSuppressor {
 public:
  /// Widest run of unseen request numbers a window grows across in one
  /// step; anything further away is kept in the sparse set.
  static constexpr RequestNum kMaxGap = 1024;

  DuplicateSuppressor()
      : accepted_(metrics::counter(
            "ft_dedup_accepted_total",
            "First copies accepted by duplicate suppression", "messages",
            "giop")),
        suppressed_(metrics::counter(
            "ft_dedup_suppressed_total",
            "Replica copies discarded by duplicate suppression", "messages",
            "giop")) {}

  /// Returns true exactly once per ⟨connection, request_num, kind⟩.
  bool accept(const ConnectionId& connection, RequestNum request_num, MessageKind kind) {
    Window& w = windows_[connection];
    if (w.contains(request_num, kind)) {
      count_suppressed();
      return false;
    }
    w.insert(request_num, kind);
    stats_.accepted += 1;
    accepted_.add();
    return true;
  }

  /// The check before decoding a copy: true (and the copy is counted as
  /// suppressed) if the triple was already accepted or lies below the
  /// connection's trim watermark. Records nothing otherwise, so a first
  /// copy that then fails to decode does not shadow a good later one.
  bool suppress_seen(const ConnectionId& connection, RequestNum request_num,
                     MessageKind kind) {
    if (!seen(connection, request_num, kind)) return false;
    count_suppressed();
    return true;
  }

  /// True if the triple has been seen or trimmed (without recording or
  /// counting anything).
  [[nodiscard]] bool seen(const ConnectionId& connection, RequestNum request_num,
                          MessageKind kind) const {
    const Window* w = find(connection);
    return w != nullptr && w->contains(request_num, kind);
  }

  /// Declares that request numbers below `watermark` on `connection` are
  /// finished: their entries are reclaimed and future copies suppressed.
  void trim(const ConnectionId& connection, RequestNum watermark) {
    windows_[connection].trim(watermark);
  }

  /// Entries currently retained (memory introspection).
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [conn, w] : windows_) n += w.size();
    return n;
  }

  [[nodiscard]] const DedupStats& stats() const { return stats_; }

 private:
  static constexpr RequestNum kPerWord = 32;  // request numbers per word

  /// One connection's seen set.
  class Window {
   public:
    [[nodiscard]] bool contains(RequestNum n, MessageKind kind) const {
      if (n < low_water_) return true;
      if (n >= base_ && n - base_ < span()) {
        const RequestNum off = n - base_;
        return (words_[off / kPerWord] >> bit(off, kind)) & 1U;
      }
      return !far_.empty() && far_.contains({n, kind});
    }

    /// Records the triple (the caller checked it was not contained).
    void insert(RequestNum n, MessageKind kind) {
      if (words_.empty()) {
        base_ = n - n % kPerWord;
        grow_to(n);
      } else if (n >= base_ && n - base_ >= span() && n - base_ - span() < kMaxGap) {
        grow_to(n);
      }
      if (n >= base_ && n - base_ < span()) {
        set(n - base_, kind);
        return;
      }
      far_.insert({n, kind});
      if (sparse_outnumber_window(n)) rebase(n);
    }

    void trim(RequestNum watermark) {
      low_water_ = watermark;
      if (watermark > base_) {
        const RequestNum drop = std::min<RequestNum>((watermark - base_) / kPerWord,
                                                     words_.size());
        for (RequestNum i = 0; i < drop; ++i) bits_ -= popcount(words_[i]);
        words_.erase(words_.begin(), words_.begin() + static_cast<std::ptrdiff_t>(drop));
        base_ += drop * kPerWord;
        if (words_.empty()) {
          base_ = watermark - watermark % kPerWord;
        } else if (watermark > base_) {
          // Clear the bits of the numbers below the watermark in the first
          // word, so size() counts only what is retained.
          const std::uint64_t kept = words_.front() & (~std::uint64_t{0} << (2 * (watermark - base_)));
          bits_ -= popcount(words_.front()) - popcount(kept);
          words_.front() = kept;
        }
      }
      far_.erase(far_.begin(), far_.lower_bound({watermark, MessageKind::kRequest}));
    }

    [[nodiscard]] std::size_t size() const { return bits_ + far_.size(); }

   private:
    using Far = std::pair<RequestNum, MessageKind>;

    [[nodiscard]] RequestNum span() const { return words_.size() * kPerWord; }
    [[nodiscard]] static unsigned bit(RequestNum off, MessageKind kind) {
      return static_cast<unsigned>(2 * (off % kPerWord)) + static_cast<unsigned>(kind);
    }
    [[nodiscard]] static std::size_t popcount(std::uint64_t w) {
      return static_cast<std::size_t>(std::popcount(w));
    }

    void set(RequestNum off, MessageKind kind) {
      words_[off / kPerWord] |= std::uint64_t{1} << bit(off, kind);
      bits_ += 1;
    }

    /// Lowest sparse key at or above n - kMaxGap (n itself is a key).
    [[nodiscard]] std::set<Far>::const_iterator cluster_begin(RequestNum n) const {
      return far_.lower_bound({n > kMaxGap ? n - kMaxGap : 0, MessageKind::kRequest});
    }

    /// True if the sparse keys in [n - kMaxGap, n] outnumber the window's
    /// bits. A window holding more than such a range can is never given
    /// up, so successive re-anchors of a connection move strictly more
    /// numbers each, and none moves more than 2 * (kMaxGap + 1).
    [[nodiscard]] bool sparse_outnumber_window(RequestNum n) const {
      if (bits_ > 2 * (kMaxGap + 1)) return false;
      std::size_t cluster = 0;
      for (auto it = cluster_begin(n); it != far_.end() && it->first <= n; ++it) {
        if (++cluster > bits_) return true;
      }
      return false;
    }

    /// Moves the window's numbers to the sparse set and re-anchors the
    /// window at the cluster ending at `n`, absorbing the sparse numbers
    /// it then covers.
    void rebase(RequestNum n) {
      for (std::size_t i = 0; i < words_.size(); ++i) {
        for (std::uint64_t w = words_[i]; w != 0; w &= w - 1) {
          const auto b = static_cast<RequestNum>(std::countr_zero(w));
          far_.insert({base_ + i * kPerWord + b / 2, static_cast<MessageKind>(b % 2)});
        }
      }
      words_.clear();
      bits_ = 0;
      const RequestNum lowest = cluster_begin(n)->first;
      base_ = lowest - lowest % kPerWord;
      grow_to(n);
    }

    /// Widens the window to cover `n` and moves the sparse entries that now
    /// fall inside it into the bits (no sparse key lies inside the window).
    void grow_to(RequestNum n) {
      words_.resize((n - base_) / kPerWord + 1, 0);
      if (far_.empty()) return;
      // Offsets from base_, so no sum can wrap near 2^64.
      auto it = far_.lower_bound({base_, MessageKind::kRequest});
      while (it != far_.end() && it->first - base_ < span()) {
        set(it->first - base_, it->second);
        it = far_.erase(it);
      }
    }

    RequestNum low_water_ = 0;  // numbers below are finished (trim)
    RequestNum base_ = 0;       // first number of words_[0], a multiple of kPerWord
    std::vector<std::uint64_t> words_;
    std::size_t bits_ = 0;  // bits set in words_
    std::set<Far> far_;     // seen numbers outside [base_, base_ + span())
  };

  void count_suppressed() {
    stats_.suppressed += 1;
    suppressed_.add();
  }

  [[nodiscard]] const Window* find(const ConnectionId& connection) const {
    auto it = windows_.find(connection);
    return it == windows_.end() ? nullptr : &it->second;
  }

  std::map<ConnectionId, Window> windows_;
  DedupStats stats_;
  metrics::CounterHandle accepted_;
  metrics::CounterHandle suppressed_;
};

}  // namespace ftcorba::ft
