// Multithreaded vector clocks (MVCs), the data structure at the heart of
// Algorithm A (paper Fig. 2).
//
// An MVC V is an array associating a natural number V[i] to each thread i;
// V[i] is the number of relevant events generated by thread i that the
// clock's owner is "aware" of.  Unlike classic distributed-systems vector
// clocks, MVCs are attached both to threads (V_i) and to shared variables
// (the access clock V^a_x and the write clock V^w_x).
//
// The clock is growable so that dynamically created threads (paper §2,
// "can be easily extended to systems consisting of a variable number of
// threads") extend every clock lazily: absent components read as 0.
//
// Representation: small-buffer optimized.  Clocks with at most
// kInlineComponents components (which covers the corpus, the paper's
// examples, and most real programs) live entirely inline — copies, joins
// and comparisons on them never touch the heap.  Wider clocks spill to a
// heap buffer transparently; the logical semantics are identical on both
// sides of the boundary.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>

#include "vc/types.hpp"

namespace mpx::vc {

/// Partial-order comparison outcome for two vector clocks.
enum class Ordering : std::uint8_t {
  kEqual,       ///< V == V'
  kLess,        ///< V <  V' (component-wise <=, at least one strictly <)
  kGreater,     ///< V >  V'
  kConcurrent,  ///< incomparable: neither <= nor >=
};

/// What one in-place join did: how many component slots the join examined
/// (Algorithm A's join counters sum it into vc.join_entries_per_event) and
/// whether any component actually grew.  A join with changed == false is a
/// "stale" join — the common Algorithm A case of re-reading a variable
/// whose write clock the thread already absorbed.
struct JoinStats {
  std::size_t entriesTouched = 0;
  bool changed = false;
};

/// A growable vector clock over thread indices.
///
/// All components default to 0; reading past the stored size yields 0 and
/// writing past it grows the clock.  This makes "all MVCs are initialized
/// to 0" (paper §3) automatic and supports dynamic thread creation.
class VectorClock {
 public:
  /// Clocks this wide or narrower are stored inline (no heap allocation).
  static constexpr std::size_t kInlineComponents = 8;

  VectorClock() noexcept : data_(inline_), size_(0), cap_(kInlineComponents) {}

  /// Clock with `threads` components, all zero.
  explicit VectorClock(std::size_t threads) : VectorClock() {
    growTo(threads);
  }

  /// Clock initialised from explicit components (handy in tests).
  VectorClock(std::initializer_list<std::uint64_t> init) : VectorClock() {
    growTo(init.size());
    std::copy(init.begin(), init.end(), data_);
  }

  // Copies normalize (drop trailing zero components), so an assigned clock
  // has the same size()/components() span as any other copy of an equal
  // value, regardless of the source's growth history.  Moves keep the
  // source's representation (they steal the buffer as-is).
  VectorClock(const VectorClock& other) : VectorClock() {
    growTo(other.size_);
    std::copy(other.data_, other.data_ + other.size_, data_);
    normalize();
  }

  VectorClock(VectorClock&& other) noexcept : VectorClock() {
    stealFrom(other);
  }

  VectorClock& operator=(const VectorClock& other) {
    if (this == &other) return *this;
    if (other.size_ <= cap_) {
      std::copy(other.data_, other.data_ + other.size_, data_);
      size_ = other.size_;
    } else {
      releaseHeap();
      growTo(other.size_);
      std::copy(other.data_, other.data_ + other.size_, data_);
    }
    normalize();
    return *this;
  }

  VectorClock& operator=(VectorClock&& other) noexcept {
    if (this == &other) return *this;
    releaseHeap();
    stealFrom(other);
    return *this;
  }

  ~VectorClock() {
    if (onHeap()) delete[] data_;
  }

  /// Number of stored components.  Logical size is infinite (zeros beyond).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True iff the components live in the inline buffer (diagnostics/tests).
  [[nodiscard]] bool isInline() const noexcept { return !onHeap(); }

  /// Component read; indices beyond the stored size read as 0.
  [[nodiscard]] std::uint64_t get(ThreadId t) const noexcept {
    return t < size_ ? data_[t] : 0;
  }

  /// Alias for get(), mirroring the paper's V[i] notation.
  [[nodiscard]] std::uint64_t operator[](ThreadId t) const noexcept {
    return get(t);
  }

  /// Component write; grows the clock as needed.
  void set(ThreadId t, std::uint64_t v) {
    if (t >= size_) {
      if (v == 0) return;  // zeros beyond the stored size are implicit
      growTo(static_cast<std::size_t>(t) + 1);
    }
    data_[t] = v;
  }

  /// V[t] <- V[t] + 1 (step 1 of Algorithm A).  Returns the new value.
  std::uint64_t increment(ThreadId t) {
    if (t >= size_) growTo(static_cast<std::size_t>(t) + 1);
    return ++data_[t];
  }

  /// In-place component-wise max: V <- max{V, other} (steps 2-3 of
  /// Algorithm A).  Allocation-free whenever `other` fits the current
  /// capacity — in particular always for inline-sized clocks.
  ///
  /// When `other` fits inside the stored prefix, a read-only scan runs
  /// first: if `other` is already <= *this (the self-join / stale-clock
  /// case, e.g. re-reading a variable whose write clock was absorbed
  /// earlier), the join returns without writing a single component — no
  /// cache lines are dirtied.  Only on the first growing component does it
  /// fall through to the writing loop.
  JoinStats joinWith(const VectorClock& other) {
    if (this == &other) return {0, false};
    const std::uint64_t* o = other.data_;
    if (other.size_ <= size_) {
      std::size_t j = 0;
      while (j < other.size_ && o[j] <= data_[j]) ++j;
      if (j == other.size_) return {other.size_, false};  // stale: no writes
      for (std::size_t k = j; k < other.size_; ++k) {
        if (o[k] > data_[k]) data_[k] = o[k];
      }
      return {other.size_, true};
    }
    growTo(other.size_);
    bool changed = false;
    for (std::size_t j = 0; j < other.size_; ++j) {
      if (o[j] > data_[j]) {
        data_[j] = o[j];
        changed = true;
      }
    }
    return {other.size_, changed};
  }

  /// Component-wise max of two clocks.
  [[nodiscard]] static VectorClock join(const VectorClock& a,
                                        const VectorClock& b) {
    VectorClock out = a;
    out.joinWith(b);
    return out;
  }

  /// V <= V'  iff  V[j] <= V'[j] for all j.  Allocation-free.
  [[nodiscard]] bool lessEq(const VectorClock& other) const noexcept {
    for (std::size_t j = 0; j < size_; ++j) {
      if (data_[j] > other.get(static_cast<ThreadId>(j))) return false;
    }
    return true;
  }

  /// V < V'  iff  V <= V' and V != V'.
  [[nodiscard]] bool less(const VectorClock& other) const noexcept {
    return lessEq(other) && !(*this == other);
  }

  /// Neither V <= V' nor V' <= V.
  [[nodiscard]] bool concurrentWith(const VectorClock& other) const noexcept {
    return compare(other) == Ordering::kConcurrent;
  }

  /// Full partial-order comparison in one pass.
  [[nodiscard]] Ordering compare(const VectorClock& other) const noexcept;

  [[nodiscard]] bool operator==(const VectorClock& other) const noexcept;

  /// Sum of all components — the "level" of the event in the computation
  /// lattice when the clock belongs to a relevant event (number of relevant
  /// events causally at-or-before it).
  [[nodiscard]] std::uint64_t sum() const noexcept;

  /// True iff every component is zero.
  [[nodiscard]] bool isZero() const noexcept;

  /// Reset all components to zero, keeping capacity.
  void clear() noexcept { std::fill(data_, data_ + size_, 0); }

  /// "(1,0,2)" rendering for logs and golden tests.
  [[nodiscard]] std::string toString() const;

  /// Stable hash usable in unordered containers.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Raw component access for serialization.
  [[nodiscard]] std::span<const std::uint64_t> components() const noexcept {
    return {data_, size_};
  }

  /// Drop trailing zero components so equal clocks compare/hash equal
  /// regardless of growth history.
  void normalize() noexcept {
    while (size_ > 0 && data_[size_ - 1] == 0) --size_;
  }

 private:
  [[nodiscard]] bool onHeap() const noexcept { return data_ != inline_; }

  /// Extend to at least `n` components, zero-filling the new tail.  Spills
  /// to the heap (with 2x growth) once `n` exceeds the current capacity.
  void growTo(std::size_t n) {
    if (n <= size_) return;
    if (n > cap_) {
      const std::size_t ncap = std::max(n, cap_ * 2);
      auto* heap = new std::uint64_t[ncap];
      std::copy(data_, data_ + size_, heap);
      if (onHeap()) delete[] data_;
      data_ = heap;
      cap_ = ncap;
    }
    std::fill(data_ + size_, data_ + n, 0);
    size_ = n;
  }

  void releaseHeap() noexcept {
    if (onHeap()) delete[] data_;
    data_ = inline_;
    cap_ = kInlineComponents;
    size_ = 0;
  }

  /// Take `other`'s contents, leaving it empty.  Callee must not own heap.
  void stealFrom(VectorClock& other) noexcept {
    if (other.onHeap()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_;
      other.cap_ = kInlineComponents;
      other.size_ = 0;
    } else {
      std::copy(other.data_, other.data_ + other.size_, inline_);
      data_ = inline_;
      cap_ = kInlineComponents;
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  std::uint64_t* data_;  ///< == inline_ (SBO) or a heap buffer
  std::size_t size_;
  std::size_t cap_;
  std::uint64_t inline_[kInlineComponents];
};

std::ostream& operator<<(std::ostream& os, const VectorClock& vc);

struct VectorClockHash {
  std::size_t operator()(const VectorClock& vc) const noexcept {
    return vc.hash();
  }
};

}  // namespace mpx::vc
