// Simulated memories. Global memory is one flat byte space per device with a
// bump allocator; addresses below the first page are unmapped so that
// fault-corrupted pointers reliably fault (a large source of DUEs, §V-B).
// Shared memory is a per-block scratchpad. Both expose bit-flip entry points
// for the beam simulator and report access validity instead of throwing so
// the executor can turn bad accesses into device exceptions (DUEs).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "isa/opcode.hpp"

namespace gpurel::sim {

/// Result of a guest access attempt.
enum class MemStatus : std::uint8_t { Ok, OutOfBounds, Misaligned };

namespace detail {

constexpr std::uint32_t width_bytes(isa::MemWidth w) {
  switch (w) {
    case isa::MemWidth::B16: return 2;
    case isa::MemWidth::B32: return 4;
    case isa::MemWidth::B64: return 8;
  }
  return 4;
}

// Widths are powers of two, so natural alignment is a mask test.
inline MemStatus check(std::uint32_t addr, std::uint32_t size, bool in_bounds) {
  if (!in_bounds) return MemStatus::OutOfBounds;
  if ((addr & (size - 1)) != 0) return MemStatus::Misaligned;
  return MemStatus::Ok;
}

inline std::uint64_t load_raw(const std::uint8_t* p, std::uint32_t size) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, size);
  return v;
}

inline void store_raw(std::uint8_t* p, std::uint32_t size, std::uint64_t v) {
  std::memcpy(p, &v, size);
}

}  // namespace detail

/// The byte store holds only the window allocations have reached,
/// [0, allocated_top): it starts at the null guard and grows, zero-filled,
/// when alloc() or restore_allocated() raise the watermark past it (reset()
/// keeps it). `capacity` is only the exhaustion limit. Every byte at or above
/// the watermark is zero. The store may move when it grows, so nothing keeps
/// a pointer into it across an alloc().
class GlobalMemory {
 public:
  /// Up to `capacity` bytes of device memory. The first `kNullGuard` bytes
  /// are permanently unmapped.
  explicit GlobalMemory(std::uint32_t capacity);

  static constexpr std::uint32_t kNullGuard = 4096;

  /// Allocate `bytes` (aligned); throws std::bad_alloc style runtime_error on
  /// exhaustion. Returns the guest address. Allocating while dirty tracking
  /// is armed disarms it (the tracked window no longer matches the image the
  /// dirty set was diffed against); callers of the delta-restore fast path
  /// re-check dirty_tracking() and fall back to a full restore.
  std::uint32_t alloc(std::uint32_t bytes, std::uint32_t align = 256);
  /// Reset the allocator and zero memory (fresh trial). Disarms dirty
  /// tracking.
  void reset();

  /// Guest access (bounds- and alignment-checked against the allocated
  /// watermark). B16 loads zero-extend; B64 moves 8 bytes. Inline: this is
  /// the hottest leaf of the whole simulator (one call per LDG/STG lane).
  MemStatus load(std::uint32_t addr, isa::MemWidth w, std::uint64_t& out) const {
    const std::uint32_t size = detail::width_bytes(w);
    const MemStatus st = detail::check(addr, size, valid(addr, size));
    if (st != MemStatus::Ok) return st;
    out = detail::load_raw(&data_[addr], size);
    return MemStatus::Ok;
  }
  MemStatus store(std::uint32_t addr, isa::MemWidth w, std::uint64_t value) {
    const std::uint32_t size = detail::width_bytes(w);
    const MemStatus st = detail::check(addr, size, valid(addr, size));
    if (st != MemStatus::Ok) return st;
    detail::store_raw(&data_[addr], size, value);
    // Naturally aligned guest stores never cross a page (alignment is a mask
    // test against the power-of-two width, and the width divides the page
    // size), so one page mark covers the whole access.
    if (tracking_) mark_page(addr >> kDirtyPageShift);
    return MemStatus::Ok;
  }

  /// Host access (asserted valid).
  void write_bytes(std::uint32_t addr, std::span<const std::uint8_t> bytes);
  void read_bytes(std::uint32_t addr, std::span<std::uint8_t> out) const;
  std::uint32_t read_u32(std::uint32_t addr) const;
  void write_u32(std::uint32_t addr, std::uint32_t value);

  /// Flip one bit anywhere in the *allocated* region (beam strike). The bit
  /// index is relative to the allocated window starting at kNullGuard.
  void flip_allocated_bit(std::uint64_t bit_index);
  /// Number of allocated (exposed) bits.
  std::uint64_t allocated_bits() const {
    return static_cast<std::uint64_t>(top_ - kNullGuard) * 8;
  }

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t allocated_top() const { return top_; }

  /// Copy out the allocated window [kNullGuard, top) — the only bytes guest
  /// code can touch. Together with restore_allocated this gives the
  /// checkpoint-fork layer a bit-exact memory image.
  std::vector<std::uint8_t> save_allocated() const;
  /// The allocated window [kNullGuard, top) in place, for comparing it with
  /// a saved image without copying.
  std::span<const std::uint8_t> allocated() const {
    return {data_.data() + kNullGuard, top_ - kNullGuard};
  }
  /// Overwrite the allocated window with a previously saved image and set the
  /// allocation watermark to `top`, growing the store to it if needed (which
  /// disarms dirty tracking, as alloc() does). Throws std::invalid_argument
  /// when the image size disagrees with `top` or `top` exceeds capacity.
  void restore_allocated(std::uint32_t top, std::span<const std::uint8_t> image);

  // Coarse dirty tracking for delta restores (checkpoint-fork fast path).
  // While armed, every mutation — guest stores, host writes, bit flips —
  // marks its kDirtyPageSize-byte page, so the dirty set is a superset of the
  // bytes that differ from the image the tracking run started from.
  static constexpr std::uint32_t kDirtyPageShift = 8;
  static constexpr std::uint32_t kDirtyPageSize = 1u << kDirtyPageShift;

  /// Arm (or disarm) dirty tracking; arming clears any previous dirty set.
  void set_dirty_tracking(bool on);
  bool dirty_tracking() const { return tracking_; }
  /// Bytes of tracking scratch retained by this device (dirty map + page
  /// list) — the per-worker cost of the shared-snapshot delta pool.
  std::uint64_t dirty_scratch_bytes() const {
    return dirty_map_.size() + dirty_pages_.capacity() * sizeof(std::uint32_t);
  }
  /// Copy back only the dirty pages from `image` (same contract as
  /// restore_allocated, plus: tracking must be armed and `top` must equal the
  /// current watermark — the caller guarantees the only divergence from the
  /// image is what tracking saw). Clears the dirty set; returns the number of
  /// bytes copied.
  std::size_t restore_allocated_delta(std::uint32_t top,
                                      std::span<const std::uint8_t> image);

 private:
  bool valid(std::uint32_t addr, std::uint32_t size) const {
    return addr >= kNullGuard && addr + size >= addr && addr + size <= top_;
  }
  void mark_page(std::uint32_t page) {
    if (!dirty_map_[page]) {
      dirty_map_[page] = 1;
      dirty_pages_.push_back(page);
    }
  }
  void mark_range(std::uint32_t addr, std::uint32_t size) {
    if (!tracking_ || size == 0) return;
    const std::uint32_t first = addr >> kDirtyPageShift;
    const std::uint32_t last = (addr + size - 1) >> kDirtyPageShift;
    for (std::uint32_t p = first; p <= last; ++p) mark_page(p);
  }
  /// Grow the store, zero-filled, so that it covers [0, top). Growing
  /// disarms dirty tracking: the dirty map only covers the old store.
  void cover(std::uint32_t top) {
    if (top <= data_.size()) return;
    data_.resize(top, 0);
    tracking_ = false;
  }
  std::vector<std::uint8_t> data_;  // [0, highest watermark so far)
  std::uint32_t capacity_;
  std::uint32_t top_ = kNullGuard;
  bool tracking_ = false;
  std::vector<std::uint8_t> dirty_map_;     // one byte per page
  std::vector<std::uint32_t> dirty_pages_;  // insertion-ordered dirty set
};

class SharedMemory {
 public:
  explicit SharedMemory(std::uint32_t bytes) : data_(bytes, 0) {}

  /// Resize to `bytes` and zero (block-pool reuse; keeps vector capacity).
  void reset(std::uint32_t bytes) { data_.assign(bytes, 0); }

  MemStatus load(std::uint32_t addr, isa::MemWidth w, std::uint64_t& out) const {
    const std::uint32_t size = detail::width_bytes(w);
    const bool in_bounds = addr + size >= addr && addr + size <= data_.size();
    const MemStatus st = detail::check(addr, size, in_bounds);
    if (st != MemStatus::Ok) return st;
    out = detail::load_raw(&data_[addr], size);
    return MemStatus::Ok;
  }
  MemStatus store(std::uint32_t addr, isa::MemWidth w, std::uint64_t value) {
    const std::uint32_t size = detail::width_bytes(w);
    const bool in_bounds = addr + size >= addr && addr + size <= data_.size();
    const MemStatus st = detail::check(addr, size, in_bounds);
    if (st != MemStatus::Ok) return st;
    detail::store_raw(&data_[addr], size, value);
    return MemStatus::Ok;
  }

  void flip_bit(std::uint64_t bit_index);
  std::uint64_t bits() const { return static_cast<std::uint64_t>(data_.size()) * 8; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(data_.size()); }

  bool operator==(const SharedMemory&) const = default;

 private:
  std::vector<std::uint8_t> data_;
};

}  // namespace gpurel::sim
