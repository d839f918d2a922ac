#include "models/rnn_model.hpp"

namespace pp::models {

RnnModel::RnnModel(const data::Dataset& dataset_meta,
                   const RnnModelConfig& config)
    : config_(config),
      timeshift_(dataset_meta.timeshifted),
      schema_(dataset_meta.schema) {
  sequence_config_.feature_mode = config.feature_mode;
  sequence_config_.truncate_history = config.truncate_history;
  sequence_config_.context_at_predict = !timeshift_;

  train::RnnNetworkConfig net;
  net.feature_size =
      train::feature_width(dataset_meta.schema, config.feature_mode);
  net.hidden_size = config.hidden_size;
  net.mlp_hidden = config.mlp_hidden;
  net.dropout = config.dropout;
  net.cell = config.cell;
  net.num_layers = config.num_layers;
  net.latent_cross = config.latent_cross;
  Rng rng(config.seed);
  network_ = std::make_unique<train::RnnNetwork>(net, rng);
}

train::TrainingCurve RnnModel::fit(const data::Dataset& dataset,
                                   std::span<const std::size_t> users) {
  sequence_config_.loss_from =
      dataset.end_time -
      static_cast<std::int64_t>(config_.loss_window_days) * 86400;

  train::RnnTrainerConfig trainer_config;
  trainer_config.epochs = config_.epochs;
  trainer_config.learning_rate = config_.learning_rate;
  trainer_config.minibatch_users = config_.minibatch_users;
  trainer_config.num_threads = config_.num_threads;
  trainer_config.grad_clip = config_.grad_clip;
  trainer_config.strategy = config_.strategy;
  trainer_config.sequence = sequence_config_;
  trainer_config.timeshift = timeshift_;
  trainer_config.seed = config_.seed;

  // RnnTrainer::fit refreshes an enabled quantized serving mode after the
  // weight updates, so int8 replicas never go stale across retraining.
  train::RnnTrainer trainer(*network_, trainer_config);
  return trainer.fit(dataset, users);
}

train::ScoredSeries RnnModel::score(const data::Dataset& dataset,
                                    std::span<const std::size_t> users,
                                    std::int64_t emit_from,
                                    std::int64_t emit_to,
                                    std::size_t num_threads) const {
  return train::score_users(*network_, dataset, users, sequence_config_,
                            timeshift_, emit_from, emit_to, num_threads);
}

train::ScoredSeries RnnModel::score_q8(const data::Dataset& dataset,
                                       std::span<const std::size_t> users,
                                       std::int64_t emit_from,
                                       std::int64_t emit_to,
                                       std::size_t num_threads) const {
  return train::score_users_q8(*network_, dataset, users, sequence_config_,
                               timeshift_, emit_from, emit_to, num_threads);
}

std::unique_ptr<RnnModel> RnnModel::clone() const {
  data::Dataset meta;
  meta.schema = schema_;
  meta.timeshifted = timeshift_;
  auto copy = std::make_unique<RnnModel>(meta, config_);
  copy->sequence_config_ = sequence_config_;
  copy->network_->copy_parameters_from(*network_);
  copy->network_->set_training(false);
  return copy;
}

void RnnModel::enable_quantized_serving() { network_->prepare_quantized(); }

void RnnModel::save(const std::string& path) const {
  BinaryWriter writer;
  network_->serialize(writer);
  writer.save_file(path);
}

void RnnModel::load(const std::string& path) {
  BinaryReader reader = BinaryReader::from_file(path);
  // RnnNetwork::deserialize refreshes an enabled quantized serving mode.
  network_->deserialize(reader);
}

}  // namespace pp::models
