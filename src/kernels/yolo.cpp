#include "kernels/yolo.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/fp16.hpp"
#include "common/rng.hpp"
#include "kernels/elem.hpp"

namespace gpurel::kernels {

using core::Precision;
using isa::CmpOp;
using isa::KernelBuilder;
using isa::Pred;
using isa::Reg;

namespace {

unsigned log2u(unsigned v) {
  unsigned l = 0;
  while ((v >> l) != 1) ++l;
  return l;
}

}  // namespace

ConvNet::ConvNet(core::WorkloadConfig config, Precision precision,
                 std::string base_name, std::vector<ConvSpec> layers,
                 double score_tolerance, unsigned input_dim, unsigned classes)
    : Workload(std::move(config)),
      precision_(precision),
      base_(std::move(base_name)),
      layers_(std::move(layers)),
      tolerance_(score_tolerance),
      input_dim_(input_dim),
      classes_(classes) {
  if (precision_ == Precision::Int32 || precision_ == Precision::Double)
    throw std::invalid_argument("ConvNet: paper YOLO variants are H/F");
  if (layers_.empty() || layers_.back().out_ch != classes_)
    throw std::invalid_argument("ConvNet: last layer must emit `classes` channels");
  if ((input_dim_ & (input_dim_ - 1)) != 0)
    throw std::invalid_argument("ConvNet: input_dim must be a power of two");
}

std::unique_ptr<ConvNet> ConvNet::yolov2(core::WorkloadConfig config,
                                         Precision precision) {
  // Shallow, permissive: the less accurate network only miscounts as an SDC
  // when the predicted class actually changes (paper §VI: a less precise
  // CNN tolerates more incorrect results).
  const unsigned dim = config.scale >= 0.75 ? 16 : 8;
  return std::make_unique<ConvNet>(
      std::move(config), precision, "YOLOV2",
      std::vector<ConvSpec>{{3, 8, true}, {8, 12, false}, {12, 10, false}},
      /*score_tolerance=*/1e9, dim);
}

std::unique_ptr<ConvNet> ConvNet::yolov3(core::WorkloadConfig config,
                                         Precision precision) {
  const unsigned dim = config.scale >= 0.75 ? 16 : 8;
  return std::make_unique<ConvNet>(
      std::move(config), precision, "YOLOV3",
      std::vector<ConvSpec>{{3, 8, false},
                            {8, 8, true},
                            {8, 12, false},
                            {12, 16, false},
                            {16, 16, false},
                            {16, 10, false}},
      /*score_tolerance=*/0.005, dim);
}

unsigned ConvNet::layer_dim(unsigned layer) const {
  unsigned d = input_dim_;
  for (unsigned l = 0; l < layer; ++l)
    if (layers_[l].pool_after) d /= 2;
  return d;
}

void ConvNet::build_programs() {
  conv_.clear();
  pool_.clear();
  conv_.reserve(layers_.size());

  for (unsigned l = 0; l < layers_.size(); ++l) {
    const ConvSpec& spec = layers_[l];
    const unsigned D = layer_dim(l);
    const unsigned DL = log2u(D);
    KernelBuilder b(name() + ".conv" + std::to_string(l), config_.profile);
    ElemEmitter e(b, precision_);
    const unsigned esz = e.esz();

    Reg in = b.load_param(0), w = b.load_param(1), bias = b.load_param(2),
        out = b.load_param(3);
    // Each thread produces two horizontally adjacent outputs of one channel
    // (register blocking, like the library's real conv kernels): the loaded
    // input row is reused by both accumulators and each weight is loaded
    // once, keeping the dynamic mix FMA-dominated. Borders use replicate
    // padding (clamped coordinates), so no per-tap masking is needed.
    Reg t = b.global_tid_x();
    Pred in_range = b.pred();
    b.isetpi(in_range, t,
             static_cast<std::int32_t>(spec.out_ch * D * D / 2), CmpOp::LT);
    b.if_then(in_range, [&] {
      Reg oc = b.reg(), rem = b.reg(), y = b.reg(), xh = b.reg(), x = b.reg();
      b.shr(oc, t, 2 * DL - 1);
      b.landi(rem, t, static_cast<std::int32_t>(D * D / 2 - 1));
      b.shr(y, rem, DL - 1);
      b.landi(xh, rem, static_cast<std::int32_t>(D / 2 - 1));
      b.shl(x, xh, 1);  // left output column of the pair

      Elem acc0 = e.alloc(), acc1 = e.alloc(), wt = e.alloc();
      e.constant(acc0, 0.0);
      e.constant(acc1, 0.0);
      // Weight base address for this output channel: w + oc*in_ch*9*esz.
      Reg w_oc_addr = b.reg();
      {
        Reg w_oc = b.reg();
        b.imuli(w_oc, oc, static_cast<std::int32_t>(spec.in_ch * 9));
        b.addr_index(w_oc_addr, w, w_oc, esz);
        b.free(w_oc);
      }

      // Hoisted, clamped input addresses: 3 rows x 4 columns cover both
      // outputs' 3x3 windows; per (ic, row, col) the load is a single
      // immediate-offset LDG.
      Reg cell_addr[3][4];
      {
        Reg iy = b.reg(), ix = b.reg(), idx = b.reg();
        Reg zero_i = b.reg(), dm1 = b.reg();
        b.movi(zero_i, 0);
        b.movi(dm1, static_cast<std::int32_t>(D - 1));
        for (unsigned r = 0; r < 3; ++r) {
          b.iaddi(iy, y, static_cast<std::int32_t>(r) - 1);
          b.imnmx(iy, iy, zero_i, /*take_max=*/true);
          b.imnmx(iy, iy, dm1, /*take_max=*/false);
          for (unsigned c = 0; c < 4; ++c) {
            b.iaddi(ix, x, static_cast<std::int32_t>(c) - 1);
            b.imnmx(ix, ix, zero_i, /*take_max=*/true);
            b.imnmx(ix, ix, dm1, /*take_max=*/false);
            b.shl(idx, iy, DL);
            b.iadd(idx, idx, ix);
            cell_addr[r][c] = b.reg();
            b.addr_index(cell_addr[r][c], in, idx, esz);
          }
        }
        b.free(iy);
        b.free(ix);
        b.free(idx);
        b.free(zero_i);
        b.free(dm1);
      }

      for (unsigned ic = 0; ic < spec.in_ch; ++ic) {
        const auto plane = static_cast<std::int32_t>(ic * D * D * esz);
        for (unsigned r = 0; r < 3; ++r) {
          // Four input cells feed six FMAs (three taps per output).
          Elem row[4] = {e.alloc(), e.alloc(), e.alloc(), e.alloc()};
          for (unsigned c = 0; c < 4; ++c) e.load(row[c], cell_addr[r][c], plane);
          for (unsigned kx = 0; kx < 3; ++kx) {
            e.load(wt, w_oc_addr,
                   static_cast<std::int32_t>((ic * 9 + r * 3 + kx) * esz));
            e.mul_add(acc0, row[kx], wt, acc0);
            e.mul_add(acc1, row[kx + 1], wt, acc1);
          }
          for (auto& el : row) e.free(el);
        }
      }

      // Bias + leaky ReLU on both outputs.
      Elem bv = e.alloc(), leak = e.alloc(), k = e.alloc();
      Reg idx = b.reg(), addr = b.reg();
      Pred scratch = b.pred();
      b.addr_index(addr, bias, oc, esz);
      e.load(bv, addr);
      e.constant(k, 0.1);
      e.add(acc0, acc0, bv);
      e.mul(leak, acc0, k);
      e.maximum(acc0, acc0, leak, scratch);
      e.add(acc1, acc1, bv);
      e.mul(leak, acc1, k);
      e.maximum(acc1, acc1, leak, scratch);
      // Store out[oc*D*D + y*D + x] and the neighbour.
      b.shl(idx, y, DL);
      b.iadd(idx, idx, x);
      Reg ocdd = b.reg();
      b.imuli(ocdd, oc, static_cast<std::int32_t>(D * D));
      b.iadd(idx, idx, ocdd);
      b.addr_index(addr, out, idx, esz);
      e.store(addr, acc0);
      e.store(addr, acc1, static_cast<std::int32_t>(esz));
    });
    conv_.push_back(b.build(/*library_code=*/true));
  }
  for (auto& p : conv_) register_program(&p);

  // Pool programs (for layers with pool_after).
  for (unsigned l = 0; l < layers_.size(); ++l) {
    if (!layers_[l].pool_after) continue;
    const unsigned D = layer_dim(l);       // dim entering the pool = conv out dim
    const unsigned O = D / 2;
    const unsigned OL = log2u(O);
    const unsigned ch = layers_[l].out_ch;
    KernelBuilder b(name() + ".pool" + std::to_string(l), config_.profile);
    ElemEmitter e(b, precision_);
    const unsigned esz = e.esz();
    Reg in = b.load_param(0), out = b.load_param(1);
    Reg t = b.global_tid_x();
    Pred in_range = b.pred();
    b.isetpi(in_range, t, static_cast<std::int32_t>(ch * O * O), CmpOp::LT);
    b.if_then(in_range, [&] {
      Reg c = b.reg(), rem = b.reg(), y = b.reg(), x = b.reg();
      b.shr(c, t, 2 * OL);
      b.landi(rem, t, static_cast<std::int32_t>(O * O - 1));
      b.shr(y, rem, OL);
      b.landi(x, rem, static_cast<std::int32_t>(O - 1));
      Reg iy = b.reg(), ix = b.reg(), idx = b.reg(), addr = b.reg();
      b.shl(iy, y, 1);
      b.shl(ix, x, 1);
      Elem m = e.alloc(), v = e.alloc();
      Pred scratch = b.pred();
      bool first = true;
      for (unsigned dy = 0; dy < 2; ++dy) {
        for (unsigned dx = 0; dx < 2; ++dx) {
          Reg yy = b.reg(), xx = b.reg();
          b.iaddi(yy, iy, static_cast<std::int32_t>(dy));
          b.iaddi(xx, ix, static_cast<std::int32_t>(dx));
          b.shl(idx, yy, log2u(D));
          b.iadd(idx, idx, xx);
          Reg cdd = b.reg();
          b.imuli(cdd, c, static_cast<std::int32_t>(D * D));
          b.iadd(idx, idx, cdd);
          b.addr_index(addr, in, idx, esz);
          if (first) {
            e.load(m, addr);
            first = false;
          } else {
            e.load(v, addr);
            e.maximum(m, m, v, scratch);
          }
          b.free(yy);
          b.free(xx);
          b.free(cdd);
        }
      }
      Reg oidx = b.reg(), coo = b.reg();
      b.shl(oidx, y, OL);
      b.iadd(oidx, oidx, x);
      b.imuli(coo, c, static_cast<std::int32_t>(O * O));
      b.iadd(oidx, oidx, coo);
      b.addr_index(addr, out, oidx, esz);
      e.store(addr, m);
    });
    pool_.push_back(b.build(/*library_code=*/true));
  }
  for (auto& p : pool_) register_program(&p);

  // Head: global average per class channel.
  {
    const unsigned D = layer_dim(static_cast<unsigned>(layers_.size()));
    KernelBuilder b(name() + ".head", config_.profile);
    ElemEmitter e(b, precision_);
    const unsigned esz = e.esz();
    Reg in = b.load_param(0), out = b.load_param(1);
    Reg t = b.global_tid_x();
    Pred in_range = b.pred();
    b.isetpi(in_range, t, static_cast<std::int32_t>(classes_), CmpOp::LT);
    b.if_then(in_range, [&] {
      Elem acc = e.alloc(), v = e.alloc(), k = e.alloc();
      e.constant(acc, 0.0);
      Reg base = b.reg(), addr = b.reg();
      b.imuli(base, t, static_cast<std::int32_t>(D * D));
      Reg i = b.reg();
      b.for_range_static(i, 0, static_cast<std::int32_t>(D * D), 1, [&] {
        Reg idx = b.reg();
        b.iadd(idx, base, i);
        b.addr_index(addr, in, idx, esz);
        e.load(v, addr);
        e.add(acc, acc, v);
        b.free(idx);
      });
      e.constant(k, 1.0 / (D * D));
      e.mul(acc, acc, k);
      b.addr_index(addr, out, t, esz);
      e.store(addr, acc);
    });
    head_ = b.build(/*library_code=*/true);
    register_program(&head_);
  }
}

void ConvNet::setup(sim::Device& dev) {
  Rng rng(config_.input_seed);
  const unsigned esz = core::precision_bytes(precision_);

  weights_.clear();
  biases_.clear();
  unsigned max_act = 3 * input_dim_ * input_dim_;
  {
    for (unsigned l = 0; l < layers_.size(); ++l) {
      const unsigned D = layer_dim(l);
      max_act = std::max(max_act, layers_[l].out_ch * D * D);
    }
  }
  for (const ConvSpec& spec : layers_) {
    // Near-unit layer gain (as trained, normalized networks have): fault
    // perturbations neither explode nor die out across depth.
    const double wscale = 1.7 / std::sqrt(static_cast<double>(spec.in_ch) * 9.0);
    auto wbytes =
        pack_elements(precision_, static_cast<std::size_t>(spec.in_ch) *
                                      spec.out_ch * 9,
                      [&](std::size_t) { return rng.uniform(-wscale, wscale); });
    weights_.push_back(dev.alloc_copy<std::uint8_t>(wbytes));
    auto bbytes = pack_elements(precision_, spec.out_ch,
                                [&](std::size_t) { return rng.uniform(-0.1, 0.1); });
    biases_.push_back(dev.alloc_copy<std::uint8_t>(bbytes));
  }
  auto image = pack_elements(precision_,
                             static_cast<std::size_t>(3) * input_dim_ * input_dim_,
                             [&](std::size_t) { return rng.uniform(0.0, 1.0); });
  act_[0] = dev.alloc(max_act * esz);
  act_[1] = dev.alloc(max_act * esz);
  dev.memory().write_bytes(act_[0], image);
  scores_ = dev.alloc(classes_ * esz);
}

void ConvNet::execute(sim::Device& dev, core::TrialRunner& runner) {
  (void)dev;
  unsigned cur = 0;
  unsigned pool_idx = 0;
  for (unsigned l = 0; l < layers_.size(); ++l) {
    const unsigned D = layer_dim(l);
    const unsigned total = layers_[l].out_ch * D * D / 2;  // 2 outputs/thread
    const unsigned blocks = (total + 63) / 64;
    sim::KernelLaunch conv{&conv_[l], {blocks, 1}, {64, 1}, 0,
                           {act_[cur], weights_[l], biases_[l], act_[1 - cur]}};
    if (!runner.launch(conv)) return;
    cur = 1 - cur;
    if (layers_[l].pool_after) {
      const unsigned O = D / 2;
      const unsigned ptotal = layers_[l].out_ch * O * O;
      sim::KernelLaunch pool{&pool_[pool_idx++], {(ptotal + 63) / 64, 1}, {64, 1},
                             0, {act_[cur], act_[1 - cur]}};
      if (!runner.launch(pool)) return;
      cur = 1 - cur;
    }
  }
  sim::KernelLaunch head{&head_, {1, 1}, {std::max(32u, classes_), 1}, 0,
                         {act_[cur], scores_}};
  runner.launch(head);
}

std::vector<float> ConvNet::read_scores(sim::Device& dev) const {
  std::vector<float> out(classes_);
  if (precision_ == Precision::Half) {
    const auto raw = dev.copy_out<std::uint16_t>(scores_, classes_);
    for (unsigned c = 0; c < classes_; ++c)
      out[c] = Half::from_bits(raw[c]).to_float();
  } else {
    out = dev.copy_out<float>(scores_, classes_);
  }
  return out;
}

void ConvNet::capture_golden(sim::Device& dev) {
  // The decoded scores are the golden reference, kept in the base class's
  // golden bytes. The score region is not registered as an output: that
  // would change output_geometry(), and with it the geometry of SDCs.
  const std::vector<float> scores = read_scores(dev);
  std::vector<std::uint8_t> bytes(scores.size() * sizeof(float));
  std::memcpy(bytes.data(), scores.data(), bytes.size());
  golden().assign(1, std::move(bytes));
}

bool ConvNet::verify(sim::Device& dev) {
  const std::vector<float> scores = read_scores(dev);
  std::vector<float> golden_scores(classes_);
  std::memcpy(golden_scores.data(), golden().front().data(),
              golden().front().size());
  // Classification-aware criterion: the output is wrong only if the argmax
  // changes or a score moves beyond the network's tolerance (paper: faults
  // that do not modify the classification result are not SDCs).
  std::size_t g_arg = 0, s_arg = 0;
  double span = 1e-6;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (std::isnan(scores[c]) || std::isinf(scores[c])) return false;
    if (golden_scores[c] > golden_scores[g_arg]) g_arg = c;
    if (scores[c] > scores[s_arg]) s_arg = c;
    span = std::max(span, static_cast<double>(std::fabs(golden_scores[c])));
  }
  if (g_arg != s_arg) return false;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    if (std::fabs(scores[c] - golden_scores[c]) > tolerance_ * span) return false;
  }
  return true;
}

}  // namespace gpurel::kernels
