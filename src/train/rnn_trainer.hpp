// RNN training (§7): Adam at lr 1e-3, minibatches of 10 users, loss
// averaged over all prediction/label pairs of the minibatch (masked to the
// last 21 days), gradient accumulation across users.
//
// Two execution strategies reproduce the §7.1 comparison:
//  * kPerUserThreads (default, the paper's "custom parallelism"): each
//    worker thread owns a full model replica, evaluates whole users
//    independently, and replica gradients are reduced into the master
//    between minibatches. No padding waste on long-tailed histories.
//  * kPaddedBatch (reference): users of a minibatch are stepped in
//    lockstep as [B x d] rows, padding every user to the longest history
//    in the batch.
//
// Also provides the tape-free scorer used for offline evaluation and by
// the serving simulator.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "train/rnn_network.hpp"
#include "train/sequence.hpp"

namespace pp::train {

enum class BatchStrategy { kPerUserThreads, kPaddedBatch, kSequential };

struct RnnTrainerConfig {
  int epochs = 1;
  double learning_rate = 1e-3;
  std::size_t minibatch_users = 10;
  /// Worker threads for kPerUserThreads (0 = hardware concurrency).
  std::size_t num_threads = 0;
  double grad_clip = 5.0;
  BatchStrategy strategy = BatchStrategy::kPerUserThreads;
  SequenceConfig sequence;
  /// Builds timeshift sequences (eq. 3) instead of session sequences.
  bool timeshift = false;
  std::uint64_t seed = 123;
};

/// Figure 4 series: cumulative sessions processed vs. minibatch loss.
struct TrainingCurve {
  std::vector<std::size_t> sessions_processed;
  std::vector<double> minibatch_loss;
  /// sessions_processed value at each epoch end (the vertical lines).
  std::vector<std::size_t> epoch_boundaries;
  double final_epoch_mean_loss = 0;
};

class RnnTrainer {
 public:
  /// `network` is the master model, updated in place.
  RnnTrainer(RnnNetwork& network, RnnTrainerConfig config);
  ~RnnTrainer();

  /// Trains on the given users of the dataset; returns the loss curve.
  ///
  /// Incremental training: the trainer object is the unit of optimizer
  /// continuity — calling fit() repeatedly on growing/rolling datasets
  /// reuses the Adam moment estimates and step count across rounds (the
  /// §10 "reusable models" loop), instead of cold-starting the optimizer
  /// like constructing a fresh trainer would.
  TrainingCurve fit(const data::Dataset& dataset,
                    std::span<const std::size_t> user_indices);

  /// Moves the §6.3 loss mask between incremental fit() rounds:
  /// predictions at/after `loss_from` carry weight 1, earlier ones 0.
  void set_loss_from(std::int64_t loss_from);

  /// Adam steps applied so far (persists across fit() rounds).
  std::size_t optimizer_steps() const;
  /// (De)serializes the Adam state (step count + moments) so an
  /// incremental trainer can resume bit-identically after a restart.
  /// Weights are the network's to save; pair with Module::serialize.
  void serialize_optimizer(BinaryWriter& writer) const;
  void deserialize_optimizer(BinaryReader& reader);

  const RnnTrainerConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Scored predictions for evaluation, aligned with eval:: span inputs.
struct ScoredSeries {
  std::vector<double> scores;
  std::vector<float> labels;
  std::vector<std::int64_t> timestamps;

  void append(double score, float label, std::int64_t ts) {
    scores.push_back(score);
    labels.push_back(label);
    timestamps.push_back(ts);
  }
  void append_series(const ScoredSeries& other);
};

/// Tape-free scoring of every prediction of the given users; emits only
/// predictions with timestamp in [emit_from, emit_to) (emit_to = 0 keeps
/// all). Replays the lag-δ semantics exactly as in training, over every
/// session: sequence_config.truncate_history is ignored, as serving never
/// truncates.
ScoredSeries score_users(const RnnNetwork& network,
                         const data::Dataset& dataset,
                         std::span<const std::size_t> user_indices,
                         const SequenceConfig& sequence_config,
                         bool timeshift, std::int64_t emit_from = 0,
                         std::int64_t emit_to = 0,
                         std::size_t num_threads = 1);

/// Int8 twin of score_users: the replay holds each user's state in its
/// stored byte form (scale + int8 vector), advances it with the quantized
/// GRU update, and scores emitted predictions in blocks through the batched
/// int8 RNNpredict head — exactly the numerics the kInt8 serving mode runs,
/// so golden-accuracy checks and the online prequential gate can evaluate
/// the int8 path directly. Requires prepare_quantized() on `network`.
ScoredSeries score_users_q8(const RnnNetwork& network,
                            const data::Dataset& dataset,
                            std::span<const std::size_t> user_indices,
                            const SequenceConfig& sequence_config,
                            bool timeshift, std::int64_t emit_from = 0,
                            std::int64_t emit_to = 0,
                            std::size_t num_threads = 1);

}  // namespace pp::train
