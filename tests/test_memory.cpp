#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/device.hpp"

namespace gpurel::sim {
namespace {

using isa::MemWidth;

/// This process's resident set in KiB from /proc/self/status, or -1 where
/// the kernel does not report it.
long vm_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      long kib = -1;
      in >> kib;
      return kib;
    }
    in.ignore(1 << 12, '\n');
  }
  return -1;
}

TEST(GlobalMemory, AllocRespectsGuardAndAlignment) {
  GlobalMemory m(1 << 20);
  const auto a = m.alloc(100);
  EXPECT_GE(a, GlobalMemory::kNullGuard);
  EXPECT_EQ(a % 256, 0u);
  const auto b = m.alloc(8, 8);
  EXPECT_GT(b, a);
  EXPECT_EQ(b % 8, 0u);
}

TEST(GlobalMemory, NullPageFaults) {
  GlobalMemory m(1 << 20);
  (void)m.alloc(64);
  std::uint64_t v = 0;
  EXPECT_EQ(m.load(0, MemWidth::B32, v), MemStatus::OutOfBounds);
  EXPECT_EQ(m.load(4092, MemWidth::B32, v), MemStatus::OutOfBounds);
  EXPECT_EQ(m.store(0, MemWidth::B32, 1), MemStatus::OutOfBounds);
}

TEST(GlobalMemory, AccessBeyondWatermarkFaults) {
  GlobalMemory m(1 << 20);
  const auto a = m.alloc(64);
  std::uint64_t v = 0;
  EXPECT_EQ(m.load(a + 64, MemWidth::B32, v), MemStatus::OutOfBounds);
  EXPECT_EQ(m.load(a + 60, MemWidth::B32, v), MemStatus::Ok);
  EXPECT_EQ(m.load(a + 60, MemWidth::B64, v), MemStatus::OutOfBounds);
}

TEST(GlobalMemory, MisalignedFaults) {
  GlobalMemory m(1 << 20);
  const auto a = m.alloc(64);
  std::uint64_t v = 0;
  EXPECT_EQ(m.load(a + 2, MemWidth::B32, v), MemStatus::Misaligned);
  EXPECT_EQ(m.load(a + 4, MemWidth::B64, v), MemStatus::Misaligned);
  EXPECT_EQ(m.load(a + 1, MemWidth::B16, v), MemStatus::Misaligned);
}

TEST(GlobalMemory, RoundTripAllWidths) {
  GlobalMemory m(1 << 20);
  const auto a = m.alloc(64);
  ASSERT_EQ(m.store(a, MemWidth::B64, 0x1122334455667788ull), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(a, MemWidth::B64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x1122334455667788ull);
  ASSERT_EQ(m.load(a, MemWidth::B32, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x55667788u);
  ASSERT_EQ(m.load(a, MemWidth::B16, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x7788u);
}

TEST(GlobalMemory, HostHelpersAndReset) {
  GlobalMemory m(1 << 20);
  const auto a = m.alloc(8);
  m.write_u32(a, 0xdeadbeef);
  EXPECT_EQ(m.read_u32(a), 0xdeadbeefu);
  m.reset();
  const auto b = m.alloc(8);
  EXPECT_EQ(b, a);              // allocator rewound
  EXPECT_EQ(m.read_u32(b), 0u);  // contents cleared
}

TEST(GlobalMemory, BitFlipChangesExactlyOneBit) {
  GlobalMemory m(1 << 20);
  const auto a = m.alloc(16);
  m.write_u32(a, 0);
  // Allocation is 256-aligned at the guard boundary, so bit 0 of the
  // allocated window is bit 0 of address kNullGuard == a.
  m.flip_allocated_bit(5);
  EXPECT_EQ(m.read_u32(a), 1u << 5);
  m.flip_allocated_bit(5);
  EXPECT_EQ(m.read_u32(a), 0u);
  EXPECT_THROW(m.flip_allocated_bit(m.allocated_bits()), std::out_of_range);
}

TEST(GlobalMemory, ExhaustionThrows) {
  // The limit is the capacity, not the (smaller) store behind the window.
  GlobalMemory m(8192);
  EXPECT_EQ(m.capacity(), 8192u);
  (void)m.alloc(2048);
  EXPECT_THROW(m.alloc(1 << 20), std::runtime_error);
  EXPECT_THROW(m.alloc(16, 3), std::invalid_argument);  // non-power-of-two align
  (void)m.alloc(8192 - m.allocated_top(), 1);  // fills capacity exactly
  EXPECT_EQ(m.allocated_top(), 8192u);
  EXPECT_THROW(m.alloc(1, 1), std::runtime_error);
}

TEST(GlobalMemory, RestoreGrowsAFreshStoreToTheImage) {
  // A fresh memory holds only the null guard; restoring a 64 KiB image must
  // grow it to the image's watermark and reproduce every byte.
  GlobalMemory src(1 << 20);
  const auto a = src.alloc(64 << 10);
  for (std::uint32_t off = 0; off < (64u << 10); off += 4)
    src.write_u32(a + off, off * 2654435761u);
  const std::vector<std::uint8_t> image = src.save_allocated();

  GlobalMemory dst(1 << 20);
  dst.set_dirty_tracking(true);  // its dirty map covers only the old store
  dst.restore_allocated(src.allocated_top(), image);
  EXPECT_FALSE(dst.dirty_tracking());
  EXPECT_EQ(dst.allocated_top(), src.allocated_top());
  EXPECT_EQ(dst.allocated_bits(), src.allocated_bits());
  EXPECT_EQ(dst.save_allocated(), image);
  std::uint64_t v = 0;
  EXPECT_EQ(dst.load(src.allocated_top(), MemWidth::B32, v),
            MemStatus::OutOfBounds);
  GlobalMemory small(8192);  // the image's watermark is past its capacity
  EXPECT_THROW(small.restore_allocated(src.allocated_top(), image),
               std::invalid_argument);
}

TEST(GlobalMemory, LoweredWatermarkLeavesZerosAbove) {
  // Bytes written before a reset, or before a restore to a lower watermark,
  // must not reappear, neither inside the old window nor in the part of a
  // larger window the store grows into.
  for (const bool by_restore : {false, true}) {
    GlobalMemory m(1 << 20);
    const auto a = m.alloc(4096);
    for (std::uint32_t off = 0; off < 4096; off += 4) m.write_u32(a + off, ~0u);
    if (by_restore) m.restore_allocated(GlobalMemory::kNullGuard, {});
    else m.reset();
    const auto b = m.alloc(64 << 10);
    std::vector<std::uint8_t> bytes(64 << 10, 0xff);
    m.read_bytes(b, bytes);
    EXPECT_EQ(bytes, std::vector<std::uint8_t>(64 << 10, 0))
        << (by_restore ? "restore" : "reset");
  }
}

TEST(GlobalMemory, DevicesHoldOnlyTheirAllocatedWindow) {
  // Eight devices with a 64 KiB allocation each must stay resident in far
  // less than one full-capacity (16 MiB) image: building a Device touches no
  // memory image, only what its workload allocates.
  const long before = vm_rss_kib();
  if (before < 0) GTEST_SKIP() << "VmRSS not reported by /proc/self/status";
  std::vector<std::unique_ptr<Device>> devices;
  for (int i = 0; i < 8; ++i) {
    devices.push_back(
        std::make_unique<Device>(arch::GpuConfig::kepler_k40c(2)));
    const auto addr = devices.back()->alloc(64 << 10);
    const std::vector<std::uint32_t> ones((64 << 10) / 4, 1u);
    devices.back()->copy_in<std::uint32_t>(addr, ones);
  }
  const long grown = vm_rss_kib() - before;
  EXPECT_LT(grown, 16 << 10) << "8 devices grew VmRSS by " << grown << " KiB";
}

TEST(SharedMemory, BoundsAndRoundTrip) {
  SharedMemory s(256);
  EXPECT_EQ(s.store(0, MemWidth::B32, 42), MemStatus::Ok);
  std::uint64_t v = 0;
  EXPECT_EQ(s.load(0, MemWidth::B32, v), MemStatus::Ok);
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s.load(256, MemWidth::B32, v), MemStatus::OutOfBounds);
  EXPECT_EQ(s.load(254, MemWidth::B32, v), MemStatus::OutOfBounds);
  EXPECT_EQ(s.load(2, MemWidth::B32, v), MemStatus::Misaligned);
}

TEST(SharedMemory, BitFlip) {
  SharedMemory s(64);
  s.store(4, MemWidth::B32, 0);
  s.flip_bit(4 * 8 + 31);
  std::uint64_t v = 0;
  s.load(4, MemWidth::B32, v);
  EXPECT_EQ(v, 0x80000000u);
  EXPECT_THROW(s.flip_bit(64 * 8), std::out_of_range);
}

}  // namespace
}  // namespace gpurel::sim
