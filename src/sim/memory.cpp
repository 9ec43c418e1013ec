#include "sim/memory.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace gpurel::sim {

GlobalMemory::GlobalMemory(std::uint32_t capacity)
    : data_(kNullGuard, 0), capacity_(capacity) {
  if (capacity <= kNullGuard)
    throw std::invalid_argument("GlobalMemory: capacity below null guard");
}

std::uint32_t GlobalMemory::alloc(std::uint32_t bytes, std::uint32_t align) {
  if (align == 0 || (align & (align - 1)) != 0)
    throw std::invalid_argument("GlobalMemory::alloc: alignment must be a power of two");
  const std::uint32_t base = (top_ + align - 1) / align * align;
  if (base + bytes < base || base + bytes > capacity_)
    throw std::runtime_error("GlobalMemory::alloc: device memory exhausted");
  top_ = base + bytes;
  cover(top_);
  tracking_ = false;  // window changed: the tracked diff base is stale
  return base;
}

void GlobalMemory::reset() {
  // Only the previously allocated window can be dirty.
  std::fill(data_.begin(), data_.begin() + top_, 0);
  top_ = kNullGuard;
  tracking_ = false;
}

void GlobalMemory::write_bytes(std::uint32_t addr, std::span<const std::uint8_t> bytes) {
  if (!valid(addr, static_cast<std::uint32_t>(bytes.size())))
    throw std::out_of_range("GlobalMemory::write_bytes");
  std::memcpy(&data_[addr], bytes.data(), bytes.size());
  mark_range(addr, static_cast<std::uint32_t>(bytes.size()));
}

void GlobalMemory::read_bytes(std::uint32_t addr, std::span<std::uint8_t> out) const {
  if (!valid(addr, static_cast<std::uint32_t>(out.size())))
    throw std::out_of_range("GlobalMemory::read_bytes");
  std::memcpy(out.data(), &data_[addr], out.size());
}

std::uint32_t GlobalMemory::read_u32(std::uint32_t addr) const {
  std::uint64_t v = 0;
  if (load(addr, isa::MemWidth::B32, v) != MemStatus::Ok)
    throw std::out_of_range("GlobalMemory::read_u32");
  return static_cast<std::uint32_t>(v);
}

void GlobalMemory::write_u32(std::uint32_t addr, std::uint32_t value) {
  if (store(addr, isa::MemWidth::B32, value) != MemStatus::Ok)
    throw std::out_of_range("GlobalMemory::write_u32");
}

std::vector<std::uint8_t> GlobalMemory::save_allocated() const {
  return std::vector<std::uint8_t>(data_.begin() + kNullGuard,
                                   data_.begin() + top_);
}

void GlobalMemory::restore_allocated(std::uint32_t top,
                                     std::span<const std::uint8_t> image) {
  if (top < kNullGuard || top > capacity_ ||
      image.size() != static_cast<std::size_t>(top - kNullGuard))
    throw std::invalid_argument("GlobalMemory::restore_allocated: image does "
                                "not match the allocation watermark");
  cover(top);
  // An empty image (a workload that allocates nothing) may hold no buffer:
  // memcpy from its null data() is undefined even for zero bytes.
  if (!image.empty())
    std::memcpy(&data_[kNullGuard], image.data(), image.size());
  // A lower watermark must leave zeros above it, as reset() would.
  if (top < top_) std::fill(data_.begin() + top, data_.begin() + top_, 0);
  top_ = top;
}

void GlobalMemory::flip_allocated_bit(std::uint64_t bit_index) {
  if (bit_index >= allocated_bits())
    throw std::out_of_range("GlobalMemory::flip_allocated_bit");
  const std::uint64_t byte = kNullGuard + bit_index / 8;
  data_[byte] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
  if (tracking_)
    mark_page(static_cast<std::uint32_t>(byte) >> kDirtyPageShift);
}

void GlobalMemory::set_dirty_tracking(bool on) {
  tracking_ = on;
  if (!on) return;
  dirty_map_.assign(
      (data_.size() + kDirtyPageSize - 1) >> kDirtyPageShift, 0);
  dirty_pages_.clear();
}

std::size_t GlobalMemory::restore_allocated_delta(
    std::uint32_t top, std::span<const std::uint8_t> image) {
  if (top < kNullGuard || top > capacity_ ||
      image.size() != static_cast<std::size_t>(top - kNullGuard))
    throw std::invalid_argument(
        "GlobalMemory::restore_allocated_delta: image does not match the "
        "allocation watermark");
  if (!tracking_ || top != top_)
    throw std::logic_error(
        "GlobalMemory::restore_allocated_delta: tracking not armed against "
        "this image");
  std::size_t bytes = 0;
  for (const std::uint32_t page : dirty_pages_) {
    const std::uint32_t begin =
        std::max(page << kDirtyPageShift, kNullGuard);
    const std::uint32_t end =
        std::min((page + 1u) << kDirtyPageShift, top);
    dirty_map_[page] = 0;
    if (begin >= end) continue;  // page fully below the guard or above top
    std::memcpy(&data_[begin], image.data() + (begin - kNullGuard),
                end - begin);
    bytes += end - begin;
  }
  dirty_pages_.clear();
  return bytes;
}

void SharedMemory::flip_bit(std::uint64_t bit_index) {
  if (bit_index >= bits()) throw std::out_of_range("SharedMemory::flip_bit");
  data_[bit_index / 8] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

}  // namespace gpurel::sim
