// Host-side device handle: owns the global memory, carries the ECC switch,
// and runs kernel launches through the executor. Mirrors the minimal CUDA
// host API surface the paper's workloads need (malloc / memcpy / launch).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "arch/gpu_config.hpp"
#include "sim/executor.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"

namespace gpurel::sim {

class Device {
 public:
  /// `mem_capacity` only bounds device memory: the memory holds the window
  /// the workload allocates, so construction touches no image.
  explicit Device(arch::GpuConfig config, std::uint32_t mem_capacity = 16u << 20);

  // The persistent executor holds references into this device, so the handle
  // is pinned in place. Workloads hold a Device by reference already.
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const arch::GpuConfig& config() const { return config_; }
  GlobalMemory& memory() { return memory_; }
  const GlobalMemory& memory() const { return memory_; }

  /// SECDED ECC on the storage arrays (paper: user-switchable on K40c/V100).
  /// The flag is consumed by the beam simulator's strike handling.
  bool ecc_enabled() const { return ecc_; }
  void set_ecc(bool on);

  /// Release all allocations and zero the previously used window.
  void reset() { memory_.reset(); }

  /// Allocate device memory; returns the guest address.
  std::uint32_t alloc(std::uint32_t bytes) { return memory_.alloc(bytes); }

  /// Allocate and copy a host array in.
  template <typename T>
  std::uint32_t alloc_copy(std::span<const T> host) {
    const auto bytes = static_cast<std::uint32_t>(host.size_bytes());
    const std::uint32_t addr = memory_.alloc(bytes);
    memory_.write_bytes(addr,
                        {reinterpret_cast<const std::uint8_t*>(host.data()), bytes});
    return addr;
  }

  template <typename T>
  void copy_in(std::uint32_t addr, std::span<const T> host) {
    memory_.write_bytes(addr, {reinterpret_cast<const std::uint8_t*>(host.data()),
                               host.size_bytes()});
  }

  template <typename T>
  std::vector<T> copy_out(std::uint32_t addr, std::size_t count) {
    std::vector<T> out(count);
    memory_.read_bytes(addr, {reinterpret_cast<std::uint8_t*>(out.data()),
                              count * sizeof(T)});
    return out;
  }

  /// Run a kernel. `max_cycles` = watchdog budget, 0 = unlimited. `fork`
  /// (may be null) selects snapshot capture or mid-launch resume, see
  /// sim/snapshot.hpp.
  LaunchStats launch(const KernelLaunch& kl, SimObserver* observer = nullptr,
                     std::uint64_t max_cycles = 0, unsigned ordinal = 0,
                     ForkIO* fork = nullptr);

 private:
  arch::GpuConfig config_;
  GlobalMemory memory_;
  // Reused across launches: its block/warp pools and decode-table capacity
  // persist, making back-to-back trials allocation-free after warm-up.
  Executor exec_;
  bool ecc_ = true;
};

}  // namespace gpurel::sim
