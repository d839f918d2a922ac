#include "train/scorer.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "util/math.hpp"
#include "util/stopwatch.hpp"

namespace pp::train {

namespace {

/// Stage histograms for the batched prediction head, resolved once per
/// precision (function-local static at the call site) and per GEMM kernel,
/// so a sampled call does no registry lookup — only two clock reads.
struct HeadStageHists {
  std::array<obs::LatencyHistogram*, 3> gemm{};  // naive / blocked / simd
  obs::LatencyHistogram* sigmoid = nullptr;
};

HeadStageHists make_head_hists(const char* precision) {
  auto& registry = obs::MetricsRegistry::global();
  HeadStageHists hists;
  const char* kernels[3] = {"naive", "blocked", "simd"};
  for (std::size_t k = 0; k < 3; ++k) {
    hists.gemm[k] = &registry.histogram(
        "pp_serving_stage_ns", {{"stage", "head_gemm"},
                                {"precision", precision},
                                {"kernel", kernels[k]}});
  }
  hists.sigmoid = &registry.histogram(
      "pp_serving_stage_ns", {{"stage", "sigmoid"}, {"precision", precision}});
  return hists;
}

std::size_t gemm_kernel_slot() {
  switch (tensor::gemm_dispatched_kernel()) {
    case tensor::GemmKernel::kNaive:
      return 0;
    case tensor::GemmKernel::kBlocked:
      return 1;
    default:
      return 2;
  }
}

/// The batched head `logits()` -> sigmoid, timed under Scorer's label.
template <class Scorer, class Logits>
std::vector<double> sigmoid_head(const Logits& logits) {
  // Stage timing piggybacks on the caller's sampling decision
  // (SampledSection), so head_gemm/sigmoid cover exactly the batches the
  // policy's TraceSpan timed and the per-stage sums stay comparable.
  if (obs::SampledSection::active()) {
    static const HeadStageHists hists = make_head_hists(Scorer::kLabel);
    Stopwatch lap;
    std::vector<double> scores = logits();
    hists.gemm[gemm_kernel_slot()]->record(lap.lap_ns());
    for (double& s : scores) s = pp::sigmoid(s);
    hists.sigmoid->record(lap.elapsed_ns());
    return scores;
  }
  std::vector<double> scores = logits();
  for (double& s : scores) s = pp::sigmoid(s);
  return scores;
}

}  // namespace

F32Scorer::F32Scorer(const RnnNetwork& network)
    : network_(&network), cold_(network.infer_initial_state()) {}

void F32Scorer::gather(Block& block, std::size_t row, const State& state) {
  std::memcpy(block.row(row).data(), state.hidden().data(),
              block.cols() * sizeof(float));
}

std::vector<double> F32Scorer::score(const Block& hidden,
                                     const Matrix& x) const {
  return sigmoid_head<F32Scorer>(
      [&] { return network_->infer_logits(hidden, x); });
}

Int8Scorer::Int8Scorer(const RnnNetwork& network)
    : network_(&network), cold_(network.infer_initial_state_q8()) {
  network.quantized_weights();  // std::logic_error without int8 replicas
}

void Int8Scorer::gather(Block& block, std::size_t row, const State& state) {
  std::memcpy(block.row_data(row), state.hidden().data(), block.cols());
  block.set_row_scale(row, state.hidden().scale());
}

std::vector<double> Int8Scorer::score(const Block& hidden,
                                      const Matrix& x) const {
  return sigmoid_head<Int8Scorer>(
      [&] { return network_->infer_logits_q8(hidden, x); });
}

}  // namespace pp::train
