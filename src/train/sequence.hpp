// Turns one user's access log into RNN step inputs implementing the
// sequence semantics of §6.1:
//
//  * update i consumes [f_i ; T(Δt_i) ; A_i]  (eq. 1),
//  * a prediction at time t may only use h_k with t_k <= t − δ, where
//    δ = session length + ε (the update-delay rule of Figure 2),
//  * the prediction input is [f ; T(t − t_k)] (eq. 2), reduced to
//    [0 ; T(start_d − t_k)] for timeshifted precompute (eq. 3),
//  * training loss is masked to predictions at or after `loss_from`
//    (the "train on the last 21 days" rule of §6.3),
//  * histories are truncated to the most recent N sessions (§7.1).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "features/encoders.hpp"
#include "tensor/matrix.hpp"

namespace pp::train {

/// Which session features enter f_i. kFull is the paper's model; kTimeOnly
/// and kNone support the "reusable model" idea of §10.1 (timestamps and
/// labels only).
enum class FeatureMode { kFull, kTimeOnly, kNone };

std::size_t feature_width(const data::ContextSchema& schema,
                          FeatureMode mode);

struct SequenceConfig {
  std::size_t time_buckets = 50;
  FeatureMode feature_mode = FeatureMode::kFull;
  /// Keep only the most recent N sessions (paper: 10000 for MPU; 0 keeps
  /// all). Bounds training; the scoring replay (score_users) keeps all.
  std::size_t truncate_history = 10000;
  /// Predictions at/after this timestamp carry loss weight 1, others 0.
  std::int64_t loss_from = 0;
  /// When false (timeshift, eq. 3) the prediction input's feature part is
  /// zero and only T(gap) is populated.
  bool context_at_predict = true;
};

/// Compiled per-user sequence. Update row i already contains A_i in its
/// last column, so the trainer feeds rows straight into the cell.
struct UserSequence {
  /// [n x (fw + time_buckets + 1)]; last column is A_i.
  tensor::Matrix update_inputs;
  /// [m x (fw + time_buckets)].
  tensor::Matrix predict_inputs;
  /// Per prediction: number of updates incorporated into the usable hidden
  /// state (0 means h0). Non-decreasing.
  std::vector<std::uint32_t> h_index;
  std::vector<float> labels;
  std::vector<float> loss_weights;
  std::vector<std::int64_t> timestamps;  // prediction times

  std::size_t num_updates() const { return update_inputs.rows(); }
  std::size_t num_predictions() const { return predict_inputs.rows(); }
  double total_loss_weight() const;
};

/// Encodes the f part of a step input (context one-hots + hour/day-of-week
/// per mode) into out[0, feature_width(schema, mode)). Shared between the
/// offline sequence builder and the online serving policy.
void encode_step_features(const data::ContextSchema& schema, FeatureMode mode,
                          std::int64_t t,
                          std::span<const std::uint32_t> context,
                          std::span<float> out);

/// Session problems (MobileTab, MPU): one prediction per session, made at
/// the session's start before its own update.
UserSequence build_session_sequence(const data::Dataset& dataset,
                                    const data::UserLog& user,
                                    const SequenceConfig& config);

/// Timeshifted problem (§3.2.1): updates from all sessions, one prediction
/// per day at the peak window start, labelled "any access in the window".
UserSequence build_timeshift_sequence(const data::Dataset& dataset,
                                      const data::UserLog& user,
                                      const SequenceConfig& config);

}  // namespace pp::train
