#include "sim/executor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/bits.hpp"
#include "common/fp16.hpp"
#include "sim/instr_info.hpp"
#include "sim/timing.hpp"

namespace gpurel::sim {

using isa::CmpOp;
using isa::Instr;
using isa::kRZ;
using isa::MemWidth;
using isa::Opcode;

namespace {

constexpr std::uint32_t kFullMask = 0xffffffffu;
constexpr std::size_t kMaxStackDepth = 64;
constexpr unsigned kBlockLaunchOverheadCycles = 20;

template <typename T>
bool cmp_eval(CmpOp op, T a, T b) {
  switch (op) {
    case CmpOp::LT: return a < b;
    case CmpOp::LE: return a <= b;
    case CmpOp::GT: return a > b;
    case CmpOp::GE: return a >= b;
    case CmpOp::EQ: return a == b;
    case CmpOp::NE: return a != b;
  }
  return false;
}

std::int32_t f2i_sat(float f) {
  if (std::isnan(f)) return 0;
  if (f >= 2147483648.0f) return std::numeric_limits<std::int32_t>::max();
  if (f <= -2147483648.0f) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(f);
}

std::int32_t d2i_sat(double d) {
  if (std::isnan(d)) return 0;
  if (d >= 2147483648.0) return std::numeric_limits<std::int32_t>::max();
  if (d <= -2147483648.0) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(d);
}

/// The DUE a failed load or store raises.
DueKind mem_due(MemStatus st) {
  return st == MemStatus::OutOfBounds ? DueKind::InvalidAddress
                                      : DueKind::MisalignedAddress;
}

}  // namespace

namespace {
bool is_fp64_pair_op(Opcode op) {
  switch (op) {
    case Opcode::DADD:
    case Opcode::DMUL:
    case Opcode::DFMA:
    case Opcode::DSETP:
      return true;
    default:
      return false;
  }
}
}  // namespace

unsigned dst_reg_width(const Instr& in) {
  switch (in.op) {
    case Opcode::DADD:
    case Opcode::DMUL:
    case Opcode::DFMA:
    case Opcode::F2D:
    case Opcode::I2D:
      return 2;
    case Opcode::LDG:
    case Opcode::LDS:
      return static_cast<MemWidth>(in.aux) == MemWidth::B64 ? 2 : 1;
    case Opcode::HMMA:
      return 4;
    case Opcode::FMMA:
      return 8;
    default:
      return isa::writes_gpr(in.op) ? 1 : 0;
  }
}

unsigned src_reg_width(const Instr& in, unsigned slot) {
  if (is_fp64_pair_op(in.op)) return 2;
  switch (in.op) {
    case Opcode::D2F:
    case Opcode::D2I:
      return slot == 0 ? 2 : 1;
    case Opcode::STG:
    case Opcode::STS:
      return (slot == 1 && static_cast<MemWidth>(in.aux) == MemWidth::B64) ? 2 : 1;
    case Opcode::HMMA:
      return 4;  // all three fragments span 4 registers (halves, 2/reg)
    case Opcode::FMMA:
      return slot == 2 ? 8 : 4;
    default:
      return 1;
  }
}

bool src_slot_used(const Instr& in, unsigned slot) {
  if (in.src[slot] == kRZ) return false;
  if (slot == 1 && (in.aux & isa::kAuxImmSrc1)) return false;
  return true;
}

Executor::Executor(const arch::GpuConfig& gpu, GlobalMemory& global)
    : gpu_(gpu), global_(global) {}

ThreadRegs& Executor::live_warp_lane(std::size_t live_index, unsigned lane) {
  WarpRt* w = live_warps_.at(live_index);
  w->dirty = true;  // the returned reference may be written (fault injection)
  return w->lanes.at(lane & 31u);
}

SharedMemory& Executor::live_block_shared(std::size_t live_index) {
  BlockRt* b = live_blocks_.at(live_index);
  b->shared_dirty = true;
  return b->shared;
}

void Executor::raise_due(DueKind kind) {
  if (due_ == DueKind::None) due_ = kind;
}

void Executor::rebuild_live_lists() {
  live_blocks_.clear();
  live_warps_.clear();
  for (auto& sm : sms_) {
    for (BlockRt* b : sm.blocks) {
      live_blocks_.push_back(b);
      for (WarpRt* w : b->warps)
        if (!w->exited) live_warps_.push_back(w);
    }
  }
}

BlockRt* Executor::acquire_block() {
  if (blocks_used_ == block_pool_.size())
    block_pool_.push_back(std::make_unique<BlockRt>());
  BlockRt* b = block_pool_[blocks_used_++].get();
  b->shared_dirty = true;
  return b;
}

WarpRt* Executor::acquire_warp() {
  if (warps_used_ == warp_pool_.size())
    warp_pool_.push_back(std::make_unique<WarpRt>());
  WarpRt* w = warp_pool_[warps_used_++].get();
  w->pc = 0;
  w->stack.clear();
  w->exited = false;
  w->at_barrier = false;
  // Clear the registers the program can name, their scoreboard entries and
  // the predicates, so an uninitialized read sees zero. No instruction names
  // a register at or above regs_per_thread, so a reused slot's older values
  // there are never read; snapshots keep the same range.
  const unsigned regs = program_regs();
  std::fill_n(w->reg_ready.begin(), regs, 0);
  w->pred_ready.fill(0);
  for (ThreadRegs& lane : w->lanes) {
    std::fill_n(lane.r.begin(), regs, 0u);
    lane.preds = 0;
  }
  w->dirty = true;
  return w;
}

unsigned Executor::program_regs() const {
  return std::min<unsigned>(launch_->program->regs_per_thread(), 256);
}

Snapshot Executor::make_snapshot(std::uint64_t cycle,
                                 std::uint64_t lane_mark) const {
  Snapshot snap;
  snap.lane_mark = lane_mark;
  snap.memory_top = global_.allocated_top();
  snap.memory = global_.save_allocated();
  ExecutorSnapshot& e = snap.exec;
  e.cycle = cycle;
  e.regs = program_regs();
  e.stats = stats_;
  e.next_block = next_block_;
  e.total_blocks = total_blocks_;
  e.completed_blocks = completed_blocks_;
  e.next_warp_id = next_warp_id_;
  e.max_blocks_per_sm = max_blocks_per_sm_;

  // Only resident blocks (and their warps, exited ones included — they stay
  // in the SM lists until the block retires) are captured; retired pool
  // slots are never read again, so they need no restoration.
  std::vector<std::pair<const BlockRt*, std::size_t>> block_index;
  std::vector<std::pair<const WarpRt*, std::size_t>> warp_index;
  auto index_of = [](auto& table, const auto* p) {
    for (const auto& [q, i] : table)
      if (q == p) return i;
    throw std::logic_error("Executor::make_snapshot: dangling runtime pointer");
  };
  for (const SmState& s : sms_) {
    for (const BlockRt* b : s.blocks) {
      block_index.emplace_back(b, e.blocks.size());
      BlockSnap bs;
      bs.cta_x = b->cta_x;
      bs.cta_y = b->cta_y;
      bs.sm = b->sm;
      bs.threads = b->threads;
      bs.warps_total = b->warps_total;
      bs.warps_exited = b->warps_exited;
      bs.warps_at_barrier = b->warps_at_barrier;
      bs.shared = b->shared;
      e.blocks.push_back(std::move(bs));
      for (const WarpRt* w : b->warps) {
        warp_index.emplace_back(w, e.warps.size());
        e.blocks.back().warps.push_back(e.warps.size());
        WarpSnap ws;
        ws.block_index = e.blocks.size() - 1;
        ws.sm = w->sm;
        ws.scheduler = w->scheduler;
        ws.warp_id = w->warp_id;
        ws.warp_in_block = w->warp_in_block;
        ws.pc = w->pc;
        ws.active = w->active;
        ws.stack = w->stack;
        ws.exited = w->exited;
        ws.at_barrier = w->at_barrier;
        ws.next_try = w->next_try;
        ws.pred_ready = w->pred_ready;
        ws.reg_ready.assign(w->reg_ready.begin(),
                            w->reg_ready.begin() + e.regs);
        ws.regs.resize(std::size_t{32} * e.regs);
        for (unsigned l = 0; l < 32; ++l) {
          ws.preds[l] = w->lanes[l].preds;
          std::copy_n(w->lanes[l].r.begin(), e.regs,
                      ws.regs.begin() + std::ptrdiff_t{l} * e.regs);
        }
        e.warps.push_back(std::move(ws));
      }
    }
  }
  e.sms.resize(sms_.size());
  for (std::size_t sm = 0; sm < sms_.size(); ++sm) {
    const SmState& s = sms_[sm];
    SmSnap& ss = e.sms[sm];
    for (const BlockRt* b : s.blocks)
      ss.blocks.push_back(index_of(block_index, b));
    for (const WarpRt* w : s.warps)
      ss.warps.push_back(index_of(warp_index, w));
    ss.rr = s.rr;
    ss.resident_warps = s.resident_warps;
    ss.next_wake = s.next_wake;
  }
  return snap;
}

void Executor::restore_snapshot(const ExecutorSnapshot& snap, bool delta) {
  stats_ = snap.stats;
  next_block_ = snap.next_block;
  total_blocks_ = snap.total_blocks;
  completed_blocks_ = snap.completed_blocks;
  next_warp_id_ = snap.next_warp_id;
  max_blocks_per_sm_ = snap.max_blocks_per_sm;

  // Live-set compaction: slot i takes entity i and the watermarks restart at
  // the captured live counts; slots past them are reinitialised by
  // place_block/acquire_warp when (if) the resumed run reuses them. Under
  // `delta` the previous resume did the same, so slots below the watermarks
  // were never re-acquired and hold their entity's state up to the flagged
  // mutations; blocks placed later in that run are simply dropped here.
  blocks_used_ = snap.blocks.size();
  warps_used_ = snap.warps.size();
  while (block_pool_.size() < blocks_used_)
    block_pool_.push_back(std::make_unique<BlockRt>());
  while (warp_pool_.size() < warps_used_)
    warp_pool_.push_back(std::make_unique<WarpRt>());
  auto block_at = [&](std::size_t i) {
    if (i >= blocks_used_)
      throw std::out_of_range("Executor::restore_snapshot: block index");
    return block_pool_[i].get();
  };
  auto warp_at = [&](std::size_t i) {
    if (i >= warps_used_)
      throw std::out_of_range("Executor::restore_snapshot: warp index");
    return warp_pool_[i].get();
  };
  for (std::size_t i = 0; i < snap.blocks.size(); ++i) {
    const BlockSnap& bs = snap.blocks[i];
    BlockRt* b = block_pool_[i].get();
    b->cta_x = bs.cta_x;
    b->cta_y = bs.cta_y;
    b->sm = bs.sm;
    b->threads = bs.threads;
    b->warps_total = bs.warps_total;
    b->warps_exited = bs.warps_exited;
    b->warps_at_barrier = bs.warps_at_barrier;
    if (!delta || b->shared_dirty) {
      b->shared = bs.shared;
      b->shared_dirty = false;  // slot now equals snapshot entity i
    }
    b->warps.clear();
  }
  for (std::size_t i = 0; i < snap.warps.size(); ++i) {
    const WarpSnap& ws = snap.warps[i];
    WarpRt* w = warp_pool_[i].get();
    w->block = block_at(ws.block_index);
    // Scheduling scalars are rewritten unconditionally (stalled warps mutate
    // next_try without being flagged); only the heavy architectural arrays
    // are gated on the dirty flag.
    w->sm = ws.sm;
    w->scheduler = ws.scheduler;
    w->warp_id = ws.warp_id;
    w->warp_in_block = ws.warp_in_block;
    w->pc = ws.pc;
    w->active = ws.active;
    w->stack = ws.stack;
    w->exited = ws.exited;
    w->at_barrier = ws.at_barrier;
    w->next_try = ws.next_try;
    if (!delta || w->dirty) {
      std::copy(ws.reg_ready.begin(), ws.reg_ready.end(), w->reg_ready.begin());
      w->pred_ready = ws.pred_ready;
      for (unsigned l = 0; l < 32; ++l) {
        w->lanes[l].preds = ws.preds[l];
        std::copy_n(ws.regs.begin() + std::ptrdiff_t{l} * snap.regs, snap.regs,
                    w->lanes[l].r.begin());
      }
      w->dirty = false;  // slot now equals snapshot entity i
    }
  }
  for (std::size_t i = 0; i < snap.blocks.size(); ++i)
    for (std::size_t wi : snap.blocks[i].warps)
      block_pool_[i]->warps.push_back(warp_at(wi));
  for (std::size_t sm = 0; sm < sms_.size(); ++sm) {
    const SmSnap& ss = snap.sms.at(sm);
    SmState& s = sms_[sm];
    for (std::size_t bi : ss.blocks) s.blocks.push_back(block_at(bi));
    for (std::size_t wi : ss.warps) s.warps.push_back(warp_at(wi));
    s.rr = ss.rr;
    s.resident_warps = ss.resident_warps;
    s.next_wake = ss.next_wake;
    s.touched = false;
  }
  rebuild_live_lists();
}

bool Executor::matches(const Snapshot& snap, std::uint64_t cycle) const {
  const ExecutorSnapshot& e = snap.exec;
  if (cycle != e.cycle || e.regs != program_regs() ||
      next_block_ != e.next_block ||
      total_blocks_ != e.total_blocks ||
      completed_blocks_ != e.completed_blocks ||
      next_warp_id_ != e.next_warp_id ||
      max_blocks_per_sm_ != e.max_blocks_per_sm || sms_.size() != e.sms.size() ||
      global_.allocated_top() != snap.memory_top)
    return false;

  // Scalars and lists first, in make_snapshot's walk order (SM, block, warp),
  // so that trials which never reconverge pay little. Every index is
  // bounds-checked here; the passes below rely on it.
  std::size_t bi = 0, wi = 0;
  for (std::size_t sm = 0; sm < sms_.size(); ++sm) {
    const SmState& s = sms_[sm];
    const SmSnap& ss = e.sms[sm];
    if (s.rr != ss.rr || s.resident_warps != ss.resident_warps ||
        s.next_wake != ss.next_wake || s.blocks.size() != ss.blocks.size() ||
        s.warps.size() != ss.warps.size())
      return false;
    const std::size_t first_block = bi;
    for (std::size_t k = 0; k < s.blocks.size(); ++k, ++bi) {
      const BlockRt& b = *s.blocks[k];
      if (ss.blocks[k] != bi || bi >= e.blocks.size()) return false;
      const BlockSnap& bs = e.blocks[bi];
      if (b.cta_x != bs.cta_x || b.cta_y != bs.cta_y || b.sm != bs.sm ||
          b.threads != bs.threads || b.warps_total != bs.warps_total ||
          b.warps_exited != bs.warps_exited ||
          b.warps_at_barrier != bs.warps_at_barrier ||
          b.warps.size() != bs.warps.size())
        return false;
      for (std::size_t m = 0; m < b.warps.size(); ++m, ++wi) {
        const WarpRt& w = *b.warps[m];
        if (bs.warps[m] != wi || wi >= e.warps.size()) return false;
        const WarpSnap& ws = e.warps[wi];
        if (ws.block_index != bi || w.sm != ws.sm ||
            w.scheduler != ws.scheduler || w.warp_id != ws.warp_id ||
            w.warp_in_block != ws.warp_in_block || w.pc != ws.pc ||
            w.active != ws.active || w.exited != ws.exited ||
            w.at_barrier != ws.at_barrier || w.next_try != ws.next_try ||
            !std::equal(w.stack.begin(), w.stack.end(), ws.stack.begin(),
                        ws.stack.end(),
                        [](const StackEntry& a, const StackEntry& c) {
                          return a.kind == c.kind && a.pc == c.pc &&
                                 a.mask == c.mask;
                        }))
          return false;
      }
    }
    // The SM's warp list, in its own (scheduling) order: entry j names a
    // warp of one of this SM's blocks just walked.
    for (std::size_t j = 0; j < s.warps.size(); ++j) {
      const std::size_t x = ss.warps[j];
      if (x >= wi) return false;
      const std::size_t xb = e.warps[x].block_index;
      if (xb < first_block || xb >= bi) return false;
      const std::vector<WarpRt*>& bw = s.blocks[xb - first_block]->warps;
      const std::size_t m = x - e.blocks[xb].warps.front();
      if (m >= bw.size() || bw[m] != s.warps[j]) return false;
    }
  }
  if (bi != e.blocks.size() || wi != e.warps.size()) return false;

  // Then the arrays, registers last: those the snapshot keeps, below
  // regs_per_thread (tests/test_workloads_param pins that no program reads
  // above it).
  const std::size_t regs = e.regs;
  auto each = [&](auto&& block_eq, auto&& warp_eq) {
    std::size_t b = 0, w = 0;
    for (const SmState& s : sms_)
      for (const BlockRt* blk : s.blocks) {
        if (!block_eq(*blk, e.blocks[b++])) return false;
        for (const WarpRt* wp : blk->warps)
          if (!warp_eq(*wp, e.warps[w++])) return false;
      }
    return true;
  };
  const auto same_shared = [](const BlockRt& b, const BlockSnap& bs) {
    return b.shared == bs.shared;
  };
  const auto same_scoreboard = [&](const WarpRt& w, const WarpSnap& ws) {
    return w.pred_ready == ws.pred_ready && ws.reg_ready.size() == regs &&
           std::equal(ws.reg_ready.begin(), ws.reg_ready.end(),
                      w.reg_ready.begin());
  };
  const auto any_block = [](const BlockRt&, const BlockSnap&) { return true; };
  const auto same_registers = [&](const WarpRt& w, const WarpSnap& ws) {
    if (ws.regs.size() != 32 * regs) return false;
    for (unsigned l = 0; l < 32; ++l)
      if (w.lanes[l].preds != ws.preds[l] ||
          (regs > 0 && std::memcmp(w.lanes[l].r.data(), &ws.regs[l * regs],
                                   regs * sizeof(std::uint32_t)) != 0))
        return false;
    return true;
  };
  const std::span<const std::uint8_t> mem = global_.allocated();
  return each(same_shared, same_scoreboard) &&
         mem.size() == snap.memory.size() &&
         (mem.empty() ||
          std::memcmp(mem.data(), snap.memory.data(), mem.size()) == 0) &&
         each(any_block, same_registers);
}

void Executor::refresh_wake(SmState& s) {
  std::uint64_t wake = std::numeric_limits<std::uint64_t>::max();
  for (const WarpRt* w : s.warps)
    if (!w->exited && !w->at_barrier) wake = std::min(wake, w->next_try);
  s.next_wake = wake;
}

void Executor::place_block(unsigned sm, unsigned linear_block, std::uint64_t cycle) {
  const auto& launch = *launch_;
  BlockRt* block = acquire_block();
  block->cta_x = linear_block % launch.grid.x;
  block->cta_y = linear_block / launch.grid.x;
  block->sm = sm;
  block->threads = launch.block.count();
  block->warps_total = (block->threads + gpu_.warp_size - 1) / gpu_.warp_size;
  block->warps_exited = 0;
  block->warps_at_barrier = 0;
  const std::uint32_t shared_bytes =
      launch.program->shared_bytes() + launch.dynamic_shared;
  block->shared.reset(std::max(shared_bytes, 4u));
  block->warps.clear();

  SmState& s = sms_[sm];
  for (unsigned wi = 0; wi < block->warps_total; ++wi) {
    WarpRt* w = acquire_warp();
    w->block = block;
    w->sm = sm;
    w->warp_id = next_warp_id_++;
    w->warp_in_block = wi;
    w->scheduler = static_cast<unsigned>(s.warps.size()) % gpu_.schedulers_per_sm;
    w->next_try = cycle + kBlockLaunchOverheadCycles;
    const unsigned first = wi * gpu_.warp_size;
    const unsigned last = std::min(block->threads, first + gpu_.warp_size);
    w->active = static_cast<std::uint32_t>(lane_mask(last - first));
    s.warps.push_back(w);
    s.resident_warps += 1;
    block->warps.push_back(w);
  }
  s.blocks.push_back(block);
  s.touched = true;
  if (obs_ != nullptr && (hooks_ & SimObserver::kWantsBlocks))
    obs_->on_block_placed(sm, linear_block, cycle);
}

void Executor::remove_block(BlockRt* block, std::uint64_t cycle) {
  if (obs_ != nullptr && (hooks_ & SimObserver::kWantsBlocks))
    obs_->on_block_retired(
        block->sm, block->cta_y * launch_->grid.x + block->cta_x, cycle);
  SmState& s = sms_[block->sm];
  std::erase(s.blocks, block);
  for (WarpRt* w : block->warps) std::erase(s.warps, w);
  // resident_warps was already decremented warp-by-warp at each EXIT.
  s.touched = true;
  ++completed_blocks_;
  if (next_block_ < total_blocks_ && s.blocks.size() < max_blocks_per_sm_)
    place_block(block->sm, next_block_++, cycle);
  // The BlockRt itself stays alive in the pool until the launch ends; only
  // its scheduling presence is removed.
}

std::uint32_t Executor::guard_true_mask(const WarpRt& w, const Instr& in) const {
  if (in.unguarded()) return w.active;
  std::uint32_t m = 0;
  for (unsigned l = 0; l < 32; ++l)
    if ((w.active >> l) & 1u)
      if (w.lanes[l].guard_true(in.guard)) m |= 1u << l;
  return m;
}

std::uint64_t Executor::dependency_ready(const WarpRt& w,
                                         const DecodedInstr& d) const {
  std::uint64_t ready = 0;
  for (unsigned s = 0; s < d.src_count; ++s)
    for (unsigned i = 0; i < d.src_width[s]; ++i)
      ready = std::max(ready, w.reg_ready[d.src_base[s] + i]);
  for (unsigned i = 0; i < d.dst_width; ++i)
    ready = std::max(ready, w.reg_ready[d.dst_base + i]);
  if (d.guarded) ready = std::max(ready, w.pred_ready[d.guard_pred]);
  if (d.writes_pred) ready = std::max(ready, w.pred_ready[d.wr_pred]);
  if (d.reads_sel) ready = std::max(ready, w.pred_ready[d.sel_pred]);
  return ready;
}

void Executor::retire_writeback(WarpRt& w, const DecodedInstr& d,
                                std::uint64_t cycle) {
  const std::uint64_t ready = cycle + d.latency;
  for (unsigned i = 0; i < d.dst_width; ++i) w.reg_ready[d.dst_base + i] = ready;
  if (d.writes_pred) w.pred_ready[d.wr_pred] = ready;
}

void Executor::release_barrier_if_complete(BlockRt& block, std::uint64_t cycle) {
  if (block.warps_at_barrier == 0) return;
  if (block.warps_at_barrier + block.warps_exited < block.warps_total) return;
  for (auto& w : block.warps) {
    if (!w->exited && w->at_barrier) {
      w->at_barrier = false;
      w->next_try = cycle + latency(gpu_, Opcode::BAR);
    }
  }
  block.warps_at_barrier = 0;
}

void Executor::exec_control(WarpRt& w, const Instr& in, std::uint32_t pc,
                            std::uint32_t guard_mask, std::uint64_t cycle) {
  switch (in.op) {
    case Opcode::BRA: {
      const std::uint32_t taken = guard_mask;
      if (taken == 0) break;  // fall through
      if (taken == w.active) {
        w.pc = static_cast<std::uint32_t>(in.imm);
        break;
      }
      if (w.stack.size() >= kMaxStackDepth) {
        raise_due(DueKind::IllegalInstruction);
        break;
      }
      w.stack.push_back({StackEntry::Kind::Div,
                         static_cast<std::uint32_t>(in.imm), taken});
      w.active &= ~taken;
      break;
    }
    case Opcode::SSY:
      if (w.stack.size() >= kMaxStackDepth) {
        raise_due(DueKind::IllegalInstruction);
        break;
      }
      w.stack.push_back({StackEntry::Kind::Ssy,
                         static_cast<std::uint32_t>(in.imm), w.active});
      break;
    case Opcode::SYNC: {
      if (w.stack.empty() || w.stack.back().kind == StackEntry::Kind::Pbk) {
        raise_due(DueKind::IllegalInstruction);
        break;
      }
      const StackEntry e = w.stack.back();
      w.stack.pop_back();
      w.pc = e.pc;
      w.active = e.mask;
      break;
    }
    case Opcode::PBK:
      if (w.stack.size() >= kMaxStackDepth) {
        raise_due(DueKind::IllegalInstruction);
        break;
      }
      w.stack.push_back({StackEntry::Kind::Pbk,
                         static_cast<std::uint32_t>(in.imm), w.active});
      break;
    case Opcode::BRK: {
      w.active &= ~guard_mask;
      if (w.active != 0) break;
      if (w.stack.empty() || w.stack.back().kind != StackEntry::Kind::Pbk) {
        raise_due(DueKind::IllegalInstruction);
        break;
      }
      const StackEntry e = w.stack.back();
      w.stack.pop_back();
      w.pc = e.pc;
      w.active = e.mask;
      break;
    }
    case Opcode::BAR:
      w.at_barrier = true;
      w.block->warps_at_barrier += 1;
      release_barrier_if_complete(*w.block, cycle);
      break;
    case Opcode::EXIT:
      w.exited = true;
      w.active = 0;
      w.block->warps_exited += 1;
      sms_[w.sm].resident_warps -= 1;  // occupancy counts live warps only
      release_barrier_if_complete(*w.block, cycle);
      std::erase(live_warps_, &w);
      break;
    default:
      break;
  }
  (void)pc;
}

void Executor::exec_mma(WarpRt& w, const Instr& in, std::uint64_t cycle,
                        std::uint32_t pc) {
  // Tensor-core MMA requires a fully converged warp; corrupted control flow
  // that reaches an MMA divergent is a device-level error.
  if (w.active != kFullMask) {
    raise_due(DueKind::IllegalInstruction);
    return;
  }
  const bool half_acc = in.op == Opcode::HMMA;
  // Gather 16x16 fragments distributed across the warp: element e of a
  // matrix lives in lane e>>3, slot e&7. A and B are packed halves (2 per
  // 32-bit register); the accumulator is packed halves (HMMA) or one float
  // per register (FMMA).
  auto load_half = [&](std::uint8_t base, unsigned e) {
    const ThreadRegs& r = w.lanes[e >> 3];
    const unsigned slot = e & 7;
    const std::uint32_t word = r.get(static_cast<std::uint8_t>(base + (slot >> 1)));
    const std::uint16_t h =
        static_cast<std::uint16_t>((slot & 1) ? (word >> 16) : (word & 0xffffu));
    return Half::from_bits(h).to_float();
  };
  float a[16][16], b[16][16], acc[16][16];
  for (unsigned e = 0; e < 256; ++e) {
    a[e / 16][e % 16] = load_half(in.src[0], e);
    b[e / 16][e % 16] = load_half(in.src[1], e);
    if (half_acc) {
      acc[e / 16][e % 16] = load_half(in.src[2], e);
    } else {
      const ThreadRegs& r = w.lanes[e >> 3];
      acc[e / 16][e % 16] = r.getf(static_cast<std::uint8_t>(in.src[2] + (e & 7)));
    }
  }
  // The tensor core multiplies in fp16 precision with fp32 accumulation and
  // one final rounding per element (Volta behaviour).
  float d[16][16];
  for (unsigned i = 0; i < 16; ++i) {
    for (unsigned j = 0; j < 16; ++j) {
      float sum = acc[i][j];
      for (unsigned k = 0; k < 16; ++k) sum += a[i][k] * b[k][j];
      d[i][j] = sum;
    }
  }
  for (unsigned e = 0; e < 256; ++e) {
    ThreadRegs& r = w.lanes[e >> 3];
    const unsigned slot = e & 7;
    const float v = d[e / 16][e % 16];
    if (half_acc) {
      const std::uint8_t reg = static_cast<std::uint8_t>(in.dst + (slot >> 1));
      std::uint32_t word = r.get(reg);
      const std::uint16_t h = Half::from_float(v).bits();
      if (slot & 1) word = (word & 0x0000ffffu) | (static_cast<std::uint32_t>(h) << 16);
      else word = (word & 0xffff0000u) | h;
      r.set(reg, word);
    } else {
      r.setf(static_cast<std::uint8_t>(in.dst + slot), v);
    }
  }
  (void)cycle;
  (void)pc;
}

template <typename ForLanes>
void Executor::exec_lanes(WarpRt& w, const Instr& in, ForLanes&& for_lanes) {
  // Operand decoding shared by every lane, hoisted out of the lane loops.
  const bool imm1 = (in.aux & isa::kAuxImmSrc1) != 0;
  const auto imm = static_cast<std::uint32_t>(in.imm);
  const auto cmp = static_cast<CmpOp>(in.aux & 0x07);
  const auto src1_u32 = [&](const ThreadRegs& r) {
    return imm1 ? imm : r.get(in.src[1]);
  };
  const auto src1_f32 = [&](const ThreadRegs& r) {
    return bits_f32(src1_u32(r));
  };
  // Most opcodes read and write only the lane's own registers.
  const auto each = [&](auto&& body) {
    for_lanes([&](ThreadRegs& r, unsigned, std::uint32_t&) { body(r); });
  };

  switch (in.op) {
    // ---- FP32 ----
    case Opcode::FADD:
      each([&](ThreadRegs& r) { r.setf(in.dst, r.getf(in.src[0]) + src1_f32(r)); });
      break;
    case Opcode::FMUL:
      each([&](ThreadRegs& r) { r.setf(in.dst, r.getf(in.src[0]) * src1_f32(r)); });
      break;
    case Opcode::FFMA:
      each([&](ThreadRegs& r) {
        r.setf(in.dst, std::fma(r.getf(in.src[0]), r.getf(in.src[1]), r.getf(in.src[2])));
      });
      break;
    case Opcode::FMNMX:
      each([&](ThreadRegs& r) {
        r.setf(in.dst, in.aux & 1 ? std::fmax(r.getf(in.src[0]), r.getf(in.src[1]))
                                  : std::fmin(r.getf(in.src[0]), r.getf(in.src[1])));
      });
      break;
    case Opcode::FSETP:
      each([&](ThreadRegs& r) {
        r.set_pred(in.dst, cmp_eval(cmp, r.getf(in.src[0]), src1_f32(r)));
      });
      break;
    // ---- FP64 ----
    case Opcode::DADD:
      each([&](ThreadRegs& r) { r.setd(in.dst, r.getd(in.src[0]) + r.getd(in.src[1])); });
      break;
    case Opcode::DMUL:
      each([&](ThreadRegs& r) { r.setd(in.dst, r.getd(in.src[0]) * r.getd(in.src[1])); });
      break;
    case Opcode::DFMA:
      each([&](ThreadRegs& r) {
        r.setd(in.dst, std::fma(r.getd(in.src[0]), r.getd(in.src[1]), r.getd(in.src[2])));
      });
      break;
    case Opcode::DSETP:
      each([&](ThreadRegs& r) {
        r.set_pred(in.dst, cmp_eval(cmp, r.getd(in.src[0]), r.getd(in.src[1])));
      });
      break;
    // ---- FP16 ----
    case Opcode::HADD:
      each([&](ThreadRegs& r) {
        r.seth(in.dst, half_add(r.geth(in.src[0]), r.geth(in.src[1])));
      });
      break;
    case Opcode::HMUL:
      each([&](ThreadRegs& r) {
        r.seth(in.dst, half_mul(r.geth(in.src[0]), r.geth(in.src[1])));
      });
      break;
    case Opcode::HFMA:
      each([&](ThreadRegs& r) {
        r.seth(in.dst, half_fma(r.geth(in.src[0]), r.geth(in.src[1]), r.geth(in.src[2])));
      });
      break;
    case Opcode::HSETP:
      each([&](ThreadRegs& r) {
        r.set_pred(in.dst, cmp_eval(cmp, r.geth(in.src[0]).to_float(),
                                    r.geth(in.src[1]).to_float()));
      });
      break;
    // ---- INT32 ----
    case Opcode::IADD:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0]) + src1_u32(r)); });
      break;
    case Opcode::IMUL:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0]) * src1_u32(r)); });
      break;
    case Opcode::IMAD:
      each([&](ThreadRegs& r) {
        r.set(in.dst, r.get(in.src[0]) * r.get(in.src[1]) + r.get(in.src[2]));
      });
      break;
    case Opcode::IMNMX:
      each([&](ThreadRegs& r) {
        const auto a = static_cast<std::int32_t>(r.get(in.src[0]));
        const auto b = static_cast<std::int32_t>(r.get(in.src[1]));
        r.set(in.dst, static_cast<std::uint32_t>((in.aux & 1) ? std::max(a, b)
                                                              : std::min(a, b)));
      });
      break;
    case Opcode::ISETP:
      each([&](ThreadRegs& r) {
        r.set_pred(in.dst, cmp_eval(cmp, static_cast<std::int32_t>(r.get(in.src[0])),
                                    static_cast<std::int32_t>(src1_u32(r))));
      });
      break;
    case Opcode::SHL:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0]) << (in.imm & 31)); });
      break;
    case Opcode::SHR:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0]) >> (in.imm & 31)); });
      break;
    case Opcode::SHRS:
      each([&](ThreadRegs& r) {
        r.set(in.dst, static_cast<std::uint32_t>(
                          static_cast<std::int32_t>(r.get(in.src[0])) >> (in.imm & 31)));
      });
      break;
    case Opcode::LOP_AND:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0]) & src1_u32(r)); });
      break;
    case Opcode::LOP_OR:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0]) | src1_u32(r)); });
      break;
    case Opcode::LOP_XOR:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0]) ^ src1_u32(r)); });
      break;
    // ---- SFU ----
    // RCP/RSQ spell out the IEEE zero cases instead of dividing: the bit
    // patterns are identical (1/±0 = ±Inf) but a literal division by zero is
    // UB under -fsanitize=float-divide-by-zero.
    case Opcode::MUFU_RCP:
      each([&](ThreadRegs& r) {
        const float x = r.getf(in.src[0]);
        r.setf(in.dst, x == 0.0f ? std::copysign(
                                       std::numeric_limits<float>::infinity(), x)
                                 : 1.0f / x);
      });
      break;
    case Opcode::MUFU_RSQ:
      each([&](ThreadRegs& r) {
        const float s = std::sqrt(r.getf(in.src[0]));
        r.setf(in.dst, s == 0.0f ? std::copysign(
                                       std::numeric_limits<float>::infinity(), s)
                                 : 1.0f / s);
      });
      break;
    case Opcode::MUFU_EX2:
      each([&](ThreadRegs& r) { r.setf(in.dst, std::exp2(r.getf(in.src[0]))); });
      break;
    case Opcode::MUFU_LG2:
      each([&](ThreadRegs& r) { r.setf(in.dst, std::log2(r.getf(in.src[0]))); });
      break;
    // ---- Conversions ----
    case Opcode::I2F:
      each([&](ThreadRegs& r) {
        r.setf(in.dst, static_cast<float>(static_cast<std::int32_t>(r.get(in.src[0]))));
      });
      break;
    case Opcode::F2I:
      each([&](ThreadRegs& r) {
        r.set(in.dst, static_cast<std::uint32_t>(f2i_sat(r.getf(in.src[0]))));
      });
      break;
    case Opcode::F2H:
      each([&](ThreadRegs& r) { r.seth(in.dst, Half::from_float(r.getf(in.src[0]))); });
      break;
    case Opcode::H2F:
      each([&](ThreadRegs& r) { r.setf(in.dst, r.geth(in.src[0]).to_float()); });
      break;
    case Opcode::F2D:
      each([&](ThreadRegs& r) {
        r.setd(in.dst, static_cast<double>(r.getf(in.src[0])));
      });
      break;
    case Opcode::D2F:
      each([&](ThreadRegs& r) { r.setf(in.dst, static_cast<float>(r.getd(in.src[0]))); });
      break;
    case Opcode::I2D:
      each([&](ThreadRegs& r) {
        r.setd(in.dst, static_cast<double>(static_cast<std::int32_t>(r.get(in.src[0]))));
      });
      break;
    case Opcode::D2I:
      each([&](ThreadRegs& r) {
        r.set(in.dst, static_cast<std::uint32_t>(d2i_sat(r.getd(in.src[0]))));
      });
      break;
    // ---- Moves ----
    case Opcode::MOV:
      each([&](ThreadRegs& r) { r.set(in.dst, r.get(in.src[0])); });
      break;
    case Opcode::MOV32I:
      each([&](ThreadRegs& r) { r.set(in.dst, imm); });
      break;
    case Opcode::SEL:
      each([&](ThreadRegs& r) {
        const bool p = r.get_pred(in.aux & 0x07);
        const bool take_a = (in.aux & isa::kAuxSelNegate) ? !p : p;
        r.set(in.dst, take_a ? r.get(in.src[0]) : r.get(in.src[1]));
      });
      break;
    case Opcode::S2R:
      for_lanes([&](ThreadRegs& r, unsigned lane, std::uint32_t&) {
        const unsigned linear = w.warp_in_block * gpu_.warp_size + lane;
        std::uint32_t v = 0;
        switch (static_cast<isa::SpecialReg>(in.imm)) {
          case isa::SpecialReg::TID_X: v = linear % launch_->block.x; break;
          case isa::SpecialReg::TID_Y: v = linear / launch_->block.x; break;
          case isa::SpecialReg::CTAID_X: v = w.block->cta_x; break;
          case isa::SpecialReg::CTAID_Y: v = w.block->cta_y; break;
          case isa::SpecialReg::NTID_X: v = launch_->block.x; break;
          case isa::SpecialReg::NTID_Y: v = launch_->block.y; break;
          case isa::SpecialReg::NCTAID_X: v = launch_->grid.x; break;
          case isa::SpecialReg::NCTAID_Y: v = launch_->grid.y; break;
          case isa::SpecialReg::LANEID: v = lane; break;
        }
        r.set(in.dst, v);
      });
      break;
    case Opcode::LDC:
      each([&](ThreadRegs& r) {
        if (static_cast<std::size_t>(in.imm) >= launch_->params.size())
          throw std::invalid_argument("LDC: kernel parameter slot out of range in " +
                                      launch_->program->name());
        r.set(in.dst, launch_->params[static_cast<std::size_t>(in.imm)]);
      });
      break;
    // ---- Memory ----
    case Opcode::LDG:
    case Opcode::LDS: {
      const auto width = static_cast<MemWidth>(in.aux);
      for_lanes([&](ThreadRegs& r, unsigned, std::uint32_t& eff_addr) {
        eff_addr = r.get(in.src[0]) + imm;
        std::uint64_t v = 0;
        const MemStatus st = in.op == Opcode::LDG
                                 ? global_.load(eff_addr, width, v)
                                 : w.block->shared.load(eff_addr, width, v);
        if (st != MemStatus::Ok) raise_due(mem_due(st));
        else if (width == MemWidth::B64) r.set64(in.dst, v);
        else r.set(in.dst, static_cast<std::uint32_t>(v));
      });
      break;
    }
    case Opcode::STG:
    case Opcode::STS: {
      const auto width = static_cast<MemWidth>(in.aux);
      for_lanes([&](ThreadRegs& r, unsigned, std::uint32_t& eff_addr) {
        eff_addr = r.get(in.src[0]) + imm;
        const std::uint64_t v = width == MemWidth::B64
                                    ? r.get64(in.src[1])
                                    : (width == MemWidth::B16
                                           ? (r.get(in.src[1]) & 0xffffu)
                                           : r.get(in.src[1]));
        const MemStatus st = in.op == Opcode::STG
                                 ? global_.store(eff_addr, width, v)
                                 : w.block->shared.store(eff_addr, width, v);
        if (st != MemStatus::Ok) raise_due(mem_due(st));
      });
      break;
    }
    case Opcode::ATOM:
      for_lanes([&](ThreadRegs& r, unsigned, std::uint32_t& eff_addr) {
        eff_addr = r.get(in.src[0]) + imm;
        std::uint64_t old64 = 0;
        if (global_.load(eff_addr, MemWidth::B32, old64) != MemStatus::Ok) {
          raise_due(DueKind::InvalidAddress);
          return;
        }
        const auto old = static_cast<std::uint32_t>(old64);
        std::uint32_t next = old;
        const std::uint32_t val = r.get(in.src[1]);
        switch (static_cast<isa::AtomOp>(in.aux & 0x07)) {
          case isa::AtomOp::Add: next = old + val; break;
          case isa::AtomOp::Min:
            next = static_cast<std::uint32_t>(
                std::min(static_cast<std::int32_t>(old), static_cast<std::int32_t>(val)));
            break;
          case isa::AtomOp::Max:
            next = static_cast<std::uint32_t>(
                std::max(static_cast<std::int32_t>(old), static_cast<std::int32_t>(val)));
            break;
          case isa::AtomOp::Exch: next = val; break;
          case isa::AtomOp::CAS: next = old == val ? r.get(in.src[2]) : old; break;
        }
        global_.store(eff_addr, MemWidth::B32, next);
        r.set(in.dst, old);
      });
      break;
    // No lane effect, but every exec-mask lane still goes through for_lanes,
    // so the hooked lane walk reports each one to after_exec, as site
    // counting expects. Control and MMA opcodes never get here (issue_instr
    // runs them at warp level).
    case Opcode::NOP:
    default:
      for_lanes([](ThreadRegs&, unsigned, std::uint32_t&) {});
      break;
  }
}

void Executor::issue_instr(WarpRt& w, std::uint64_t cycle) {
  const std::uint32_t pc = w.pc;
  const Instr& in = code_[pc];
  const DecodedInstr& d = decode_[pc];
  w.pc = pc + 1;
  // Issuing mutates architectural state (registers, scoreboard ready times,
  // and — via observers — anything a hook touches): flag for delta restores.
  w.dirty = true;
  if (in.op == Opcode::STS) w.block->shared_dirty = true;

  const std::uint32_t exec_mask = guard_true_mask(w, in);

  // Accounting (warp- and lane-level, per unit and per mix class).
  stats_.warp_instructions += 1;
  stats_.warp_per_unit[d.unit_kind] += 1;
  stats_.warp_per_mix[d.mix] += 1;
  const unsigned lanes = static_cast<unsigned>(std::popcount(exec_mask));
  stats_.lane_instructions += lanes;
  stats_.lane_per_unit[d.unit_kind] += lanes;
  stats_.lane_busy_per_unit[d.unit_kind] +=
      static_cast<double>(lanes) * d.latency;

  if (obs_ != nullptr && (hooks_ & SimObserver::kWantsWarpIssue)) {
    const WarpIssue wi{cycle, w.sm, w.warp_id, pc, &in, exec_mask};
    obs_->on_warp_issue(wi);
  }

  if (obs_ != nullptr && (hooks_ & SimObserver::kWantsBeforeExec) &&
      exec_mask != 0) {
    for (unsigned l = 0; l < 32; ++l) {
      if ((exec_mask >> l) & 1u) {
        ExecContext ctx{cycle, w.sm, l, w.warp_id, pc, &in, &w.lanes[l], &w.pc,
                        0, linear_cta(w)};
        obs_->before_exec(ctx);
      }
    }
  }

  if (d.is_control) {
    exec_control(w, in, pc, exec_mask, cycle);
    if (obs_ != nullptr && (hooks_ & SimObserver::kWantsAfterExec)) {
      for (unsigned l = 0; l < 32; ++l) {
        if ((exec_mask >> l) & 1u) {
          ExecContext ctx{cycle, w.sm, l, w.warp_id, pc, &in, &w.lanes[l],
                          &w.pc, 0, linear_cta(w)};
          obs_->after_exec(ctx);
        }
      }
    }
  } else if (d.is_mma) {
    exec_mma(w, in, cycle, pc);
    if (obs_ != nullptr && (hooks_ & SimObserver::kWantsAfterExec) &&
        due_ == DueKind::None) {
      for (unsigned l = 0; l < 32; ++l) {
        ExecContext ctx{cycle, w.sm, l, w.warp_id, pc, &in, &w.lanes[l], &w.pc,
                        0, linear_cta(w)};
        obs_->after_exec(ctx);
      }
    }
  } else {
    // One lane walk, two drivers for exec_lanes: both visit the exec-mask
    // lanes in ascending order and stop once a lane has raised a DUE; the
    // hooked one calls after_exec right after each lane (the lane that
    // raised the DUE included). Every before_exec already ran above, so a
    // before-only observer takes the hook-free driver.
    auto lane_walk = [&](auto after_lane) {
      return [&, after_lane](auto&& op) {
        for (std::uint32_t m = exec_mask; m != 0 && due_ == DueKind::None;
             m &= m - 1) {
          const auto l = static_cast<unsigned>(std::countr_zero(m));
          std::uint32_t eff_addr = 0;
          op(w.lanes[l], l, eff_addr);
          after_lane(l, eff_addr);
        }
      };
    };
    if (obs_ != nullptr && (hooks_ & SimObserver::kWantsAfterExec)) {
      exec_lanes(w, in, lane_walk([&](unsigned l, std::uint32_t eff_addr) {
        ExecContext ctx{cycle, w.sm, l, w.warp_id, pc, &in, &w.lanes[l], &w.pc,
                        eff_addr, linear_cta(w)};
        obs_->after_exec(ctx);
      }));
    } else {
      exec_lanes(w, in, lane_walk([](unsigned, std::uint32_t) {}));
    }
  }

  retire_writeback(w, d, cycle);
  if (!w.exited && !w.at_barrier) w.next_try = cycle + 1;

  // A corrupted PC (fault injection) or runaway control flow lands outside
  // the program: device exception.
  if (!w.exited && w.pc >= launch_->program->size())
    raise_due(DueKind::IllegalInstruction);
}

bool Executor::try_issue(
    WarpRt& w, std::uint64_t cycle,
    std::array<unsigned, static_cast<std::size_t>(UnitGroup::kCount)>& used) {
  if (w.pc >= decode_.size()) {
    raise_due(DueKind::IllegalInstruction);
    return false;
  }
  const DecodedInstr& d = decode_[w.pc];
  const std::uint64_t dep = dependency_ready(w, d);
  if (dep > cycle) {
    w.next_try = std::max(w.next_try, dep);
    return false;
  }
  if (used[d.unit_group] >= d.group_limit) {
    w.next_try = cycle + 1;
    return false;
  }
  used[d.unit_group] += 1;
  issue_instr(w, cycle);
  return true;
}

void Executor::schedule_sm(unsigned sm, std::uint64_t cycle) {
  SmState& s = sms_[sm];
  const std::size_t n = s.warps.size();
  if (n == 0) return;
  std::array<unsigned, static_cast<std::size_t>(UnitGroup::kCount)> used{};

  // One prefilter pass builds each scheduler's candidate ring (warp indices
  // in ascending order) instead of every scheduler rescanning the full warp
  // list. Scanning a ring from lower_bound(rr % n) with wraparound visits
  // exactly the candidates the full rotated scan would have visited, in the
  // same order; the eligibility re-checks below keep the result identical
  // even when an earlier issue this cycle mutated warp state (barrier
  // release re-times warps to a later cycle, so released warps are correctly
  // not issued this cycle whether or not they appear in a ring).
  for (auto& ring : rings_) ring.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const WarpRt* w = s.warps[i];
    if (w->exited || w->at_barrier || w->next_try > cycle) continue;
    rings_[w->scheduler].push_back(static_cast<std::uint32_t>(i));
  }

  for (unsigned sched = 0; sched < gpu_.schedulers_per_sm; ++sched) {
    WarpRt* picked = nullptr;
    const std::vector<std::uint32_t>& ring = rings_[sched];
    if (!ring.empty()) {
      // rr may exceed n after block retirement shrank the warp list; the
      // legacy scan indexed modulo n, so the effective start is rr % n.
      const std::uint32_t start = static_cast<std::uint32_t>(s.rr[sched] % n);
      const std::size_t rn = ring.size();
      const std::size_t off = static_cast<std::size_t>(
          std::lower_bound(ring.begin(), ring.end(), start) - ring.begin());
      for (std::size_t k = 0; k < rn; ++k) {
        const std::uint32_t idx = ring[(off + k) % rn];
        WarpRt* w = s.warps[idx];
        if (w->exited || w->at_barrier || w->next_try > cycle) continue;
        if (!try_issue(*w, cycle, used)) {
          if (due_ != DueKind::None) return;
          continue;
        }
        picked = w;
        s.rr[sched] = static_cast<unsigned>((idx + 1) % n);
        break;
      }
      if (due_ != DueKind::None) return;
    }
    if (picked == nullptr) continue;

    // Dual issue: a second independent instruction from the same warp.
    if (gpu_.issue_per_scheduler >= 2 && !picked->exited && !picked->at_barrier &&
        picked->pc < decode_.size()) {
      const DecodedInstr& nd = decode_[picked->pc];
      if (!nd.is_control && dependency_ready(*picked, nd) <= cycle) {
        if (used[nd.unit_group] < nd.group_limit) {
          used[nd.unit_group] += 1;
          issue_instr(*picked, cycle);
          if (due_ != DueKind::None) return;
        }
      }
    }
  }
}

LaunchStats Executor::run(const KernelLaunch& launch, SimObserver* observer,
                          std::uint64_t max_cycles, unsigned launch_ordinal,
                          ForkIO* fork) {
  if (launch.program == nullptr)
    throw std::invalid_argument("Executor::run: null program");
  if (launch.grid.count() == 0 || launch.block.count() == 0)
    throw std::invalid_argument("Executor::run: empty grid or block");
  if (launch.block.count() > gpu_.max_threads_per_block)
    throw std::invalid_argument("Executor::run: block too large");
  const Snapshot* resume = fork != nullptr ? fork->resume : nullptr;
  const bool capturing =
      fork != nullptr && resume == nullptr && fork->marks != nullptr;
  const bool dropping = fork != nullptr && fork->golden != nullptr;

  launch_ = &launch;
  obs_ = observer;
  hooks_ = observer != nullptr ? observer->wants() : 0u;
  due_ = DueKind::None;
  if (sms_.size() != gpu_.sm_count) sms_.resize(gpu_.sm_count);
  for (auto& s : sms_) {
    s.blocks.clear();
    s.warps.clear();
    s.rr.assign(gpu_.schedulers_per_sm, 0);
    s.resident_warps = 0;
    s.next_wake = 0;
    s.touched = false;
  }
  if (rings_.size() != gpu_.schedulers_per_sm) rings_.resize(gpu_.schedulers_per_sm);
  live_blocks_.clear();
  live_warps_.clear();
  build_decode_table(gpu_, *launch.program, decode_);
  code_ = &launch.program->at(0);

  if (resume == nullptr) {
    resident_ = nullptr;  // fresh placement invalidates snapshot residency
    stats_ = LaunchStats{};
    stats_.shared_bytes_per_block =
        launch.program->shared_bytes() + launch.dynamic_shared;
    blocks_used_ = 0;  // pool watermarks: prior-run storage is reused, not freed
    warps_used_ = 0;
    next_block_ = 0;
    completed_blocks_ = 0;
    next_warp_id_ = 0;

    const auto occ = arch::occupancy(gpu_, launch.program->regs_per_thread(),
                                     launch.program->shared_bytes() +
                                         launch.dynamic_shared,
                                     launch.block.count());
    max_blocks_per_sm_ = occ.blocks_per_sm;
    total_blocks_ = launch.grid.count();

    // Initial placement, round-robin across SMs.
    for (unsigned round = 0;
         round < max_blocks_per_sm_ && next_block_ < total_blocks_; ++round)
      for (unsigned sm = 0; sm < gpu_.sm_count && next_block_ < total_blocks_;
           ++sm)
        place_block(sm, next_block_++, 0);
    rebuild_live_lists();
    for (auto& s : sms_) {
      refresh_wake(s);
      s.touched = false;
    }
  } else {
    // Mid-launch resume: the caller has already restored global memory;
    // scheduler, stats, and warp state come from the snapshot. next_wake is
    // restored verbatim, so the first event of the resumed loop is exactly
    // the event the capturing run processed next. When the pools are still
    // resident on this very snapshot, clean slots skip their heavy arrays.
    restore_snapshot(resume->exec, fork->delta && resident_ == resume);
    resident_ = fork->delta ? resume : nullptr;
  }

  if (obs_ != nullptr) {
    LaunchInfo info{&launch, launch_ordinal};
    obs_->on_launch_begin(info, *this);
  }

  std::uint64_t cycle = resume != nullptr ? resume->exec.cycle : 0;
  // Appends a snapshot for each remaining mark the trial's cumulative lane
  // count has reached, telling the observer after each one.
  auto capture = [&] {
    const std::uint64_t mark = fork->lane_base + stats_.lane_instructions;
    while (fork->next_mark < fork->marks->size() &&
           (*fork->marks)[fork->next_mark] <= mark) {
      fork->out->push_back(make_snapshot(cycle, mark));
      ++fork->next_mark;
      if (obs_ != nullptr) obs_->on_capture();
    }
  };
  // Uses up every golden mark the trial has reached and reports whether the
  // last of them is this boundary, with the observer idle and the state
  // equal, so the run may stop (see ForkIO's drop role).
  auto reconverged = [&] {
    const std::vector<Snapshot>& golden = *fork->golden;
    const std::uint64_t lanes = fork->lane_base + stats_.lane_instructions;
    const Snapshot* last = nullptr;
    while (fork->next_golden < golden.size()) {
      const Snapshot& g = golden[fork->next_golden];
      if (g.launch_ordinal > launch_ordinal ||
          (g.launch_ordinal == launch_ordinal && g.lane_mark > lanes))
        break;
      last = &g;
      ++fork->next_golden;
    }
    if (last == nullptr || last->launch_ordinal != launch_ordinal ||
        last->lane_mark != lanes || last->prior.cycles != fork->prior_cycles ||
        (obs_ != nullptr && obs_->wants() != 0) || !matches(*last, cycle))
      return false;
    fork->dropped = last;
    return true;
  };
  while (completed_blocks_ < total_blocks_ && due_ == DueKind::None) {
    // Next event: the earliest per-SM wake cycle (each SM caches the min
    // next_try over its schedulable warps).
    std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
    for (const auto& s : sms_) next = std::min(next, s.next_wake);

    // Cycle-boundary capture. One cycle value can span several loop
    // iterations (warps an issue-limited scheduler skipped keep next_wake at
    // the current cycle), so the body's end is not the cycle's end; only
    // when the next event is strictly later has `cycle` fully retired. A
    // mid-cycle snapshot would hold less progress than its lane mark claims.
    // on_capture reports this one boundary to the observer, so the site
    // counts a counting observer records there match the snapshot.
    if (capturing && due_ == DueKind::None && next > cycle) capture();
    // The reconvergence drop checks at the same boundary: from a state the
    // fault-free run reached, the rest of the launch replays that run.
    if (dropping && next > cycle && reconverged()) break;

    if (next == std::numeric_limits<std::uint64_t>::max()) {
      raise_due(DueKind::BarrierDeadlock);
      break;
    }
    if (max_cycles != 0 && next > max_cycles) {
      raise_due(DueKind::Watchdog);
      cycle = max_cycles;
      break;
    }

    // Account the stall gap (occupancy integral) and deliver time to the
    // observer (beam strikes land inside this window).
    const std::uint64_t delta = next - cycle;
    if (delta > 0) {
      unsigned resident = 0;
      std::size_t blocks = 0;
      for (const auto& s : sms_) {
        if (s.resident_warps > 0) stats_.sm_active_cycles += delta;
        resident += s.resident_warps;
        blocks += s.blocks.size();
      }
      stats_.warp_cycles += static_cast<double>(delta) * resident;
      stats_.block_cycles += static_cast<double>(delta) * static_cast<double>(blocks);
      if (obs_ != nullptr && (hooks_ & SimObserver::kWantsTimeAdvance)) {
        obs_->on_time_advance(cycle, next, *this);
        if (due_ != DueKind::None) {
          cycle = next;
          break;
        }
      }
    }
    cycle = next;
    // Re-read the hook claims at the cycle boundary: a one-shot observer
    // (e.g. an injection that has fired) may drop its per-lane hooks, and
    // from the next cycle on the launch runs on the bare warp paths.
    if (obs_ != nullptr) hooks_ = obs_->wants();

    bool placement_dirty = false;
    // Only SMs at their wake cycle can issue; skipped SMs have no eligible
    // warp, so scheduling them would be a no-op.
    for (unsigned sm = 0; sm < gpu_.sm_count && due_ == DueKind::None; ++sm) {
      SmState& s = sms_[sm];
      if (s.next_wake > cycle) continue;
      schedule_sm(sm, cycle);
      s.touched = true;
    }

    // Retire completed blocks and place pending ones.
    for (auto& s : sms_) {
      for (std::size_t i = 0; i < s.blocks.size();) {
        BlockRt* b = s.blocks[i];
        if (b->warps_exited == b->warps_total) {
          remove_block(b, cycle);
          placement_dirty = true;
        } else {
          ++i;
        }
      }
    }
    if (placement_dirty) rebuild_live_lists();
    for (auto& s : sms_) {
      if (s.touched) {
        refresh_wake(s);
        s.touched = false;
      }
    }

  }

  // Final-cycle capture: marks crossed by the launch's last cycle never see
  // a later event inside the loop, so they are flushed here. Resuming such
  // a snapshot re-enters the loop with every block complete and exits
  // immediately, which is exactly the state it captured. The drop checks
  // the same final boundary.
  if (capturing && due_ == DueKind::None) capture();
  if (dropping && due_ == DueKind::None && fork->dropped == nullptr)
    reconverged();

  stats_.cycles = cycle;
  stats_.due = due_;
  stats_.finalize(gpu_.max_warps_per_sm);
  if (obs_ != nullptr) obs_->on_launch_end(stats_);

  // Keep pools and per-SM vector capacity for the next run; drop only the
  // raw-pointer views so a stale Machine can't dangle into reused storage.
  launch_ = nullptr;
  obs_ = nullptr;
  hooks_ = 0;
  for (auto& s : sms_) {
    s.blocks.clear();
    s.warps.clear();
  }
  live_blocks_.clear();
  live_warps_.clear();
  return stats_;
}

}  // namespace gpurel::sim
