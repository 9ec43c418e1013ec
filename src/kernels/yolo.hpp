// CNN inference workloads standing in for YOLOv2 / YOLOv3 (paper §III-B):
// stacks of 3x3 convolutions (leaky-ReLU, optional 2x2 max-pool) feeding a
// global-average classification head. Convolution dominates the dynamic mix
// (>75% multiply-add, like the paper's profiled YOLO), the kernels model
// vendor-library code (no SASSIFI on Kepler), and — crucially — the SDC
// criterion is classification-aware: a fault whose perturbation does not
// change the predicted class (within the network's tolerance) is not an
// error, which is why CNN AVFs are far below matrix-multiplication AVFs.
// YOLOv3-lite is deeper and stricter (more accurate network => less fault
// tolerance), reproducing the paper's v3 > v2 AVF ordering.
#pragma once

#include <vector>

#include "core/workload.hpp"
#include "isa/kernel_builder.hpp"

namespace gpurel::kernels {

struct ConvSpec {
  unsigned in_ch = 0;
  unsigned out_ch = 0;
  bool pool_after = false;
};

class ConvNet : public core::Workload {
 public:
  ConvNet(core::WorkloadConfig config, core::Precision precision,
          std::string base_name, std::vector<ConvSpec> layers,
          double score_tolerance, unsigned input_dim = 8, unsigned classes = 10);

  /// YOLOv2-lite: 3 conv layers, permissive tolerance.
  static std::unique_ptr<ConvNet> yolov2(core::WorkloadConfig config,
                                         core::Precision precision);
  /// YOLOv3-lite: 6 conv layers, strict tolerance.
  static std::unique_ptr<ConvNet> yolov3(core::WorkloadConfig config,
                                         core::Precision precision);

  std::string base_name() const override { return base_; }
  core::Precision precision() const override { return precision_; }
  bool uses_library() const override { return true; }
  bool fork_safe() const override { return true; }

  /// Class scores of the last completed trial (decoded to float).
  std::vector<float> read_scores(sim::Device& dev) const;

 protected:
  void build_programs() override;
  void setup(sim::Device& dev) override;
  void execute(sim::Device& dev, core::TrialRunner& runner) override;
  bool verify(sim::Device& dev) override;
  void capture_golden(sim::Device& dev) override;

 private:
  unsigned layer_dim(unsigned layer) const;  // spatial dim entering `layer`

  core::Precision precision_;
  std::string base_;
  std::vector<ConvSpec> layers_;
  double tolerance_;
  unsigned input_dim_;
  unsigned classes_;

  std::vector<isa::Program> conv_;   // one per layer (static dims/channels)
  std::vector<isa::Program> pool_;   // one per pooled layer
  isa::Program head_;

  std::vector<std::uint32_t> weights_;  // per layer
  std::vector<std::uint32_t> biases_;
  std::uint32_t act_[2] = {0, 0};
  std::uint32_t scores_ = 0;
};

}  // namespace gpurel::kernels
