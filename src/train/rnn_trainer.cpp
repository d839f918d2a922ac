#include "train/rnn_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "autograd/ops.hpp"
#include "nn/optimizer.hpp"
#include "train/scorer.hpp"
#include "util/logging.hpp"
#include "util/thread.hpp"
#include "util/thread_pool.hpp"

namespace pp::train {

using namespace autograd;

namespace {

/// [1 x cols] copy of row r of a matrix.
Matrix row_copy(const Matrix& m, std::size_t r) {
  Matrix row(1, m.cols());
  std::memcpy(row.data(), m.data() + r * m.cols(),
              m.cols() * sizeof(float));
  return row;
}

/// Leaf [1 x cols] variable copied from row r of a matrix.
Variable row_input(const Matrix& m, std::size_t r) {
  return Variable(row_copy(m, r), /*requires_grad=*/false);
}

struct UserLossResult {
  Variable loss_sum;  // undefined when no weighted predictions exist
  double weight_sum = 0;
  double loss_value = 0;
  std::size_t sessions = 0;
};

/// Builds the BPTT graph for one user and returns the summed weighted BCE.
/// Updates are applied lazily: h_index is non-decreasing, so each update
/// enters the graph at most once, and trailing updates never needed by a
/// prediction are skipped.
UserLossResult user_forward(const RnnNetwork& network,
                            const UserSequence& seq, Rng& rng) {
  UserLossResult result;
  result.sessions = seq.num_updates();

  std::vector<nn::CellState> state = network.graph_initial_state();
  std::vector<Variable> exposed;
  exposed.reserve(seq.num_updates() + 1);
  exposed.push_back(state.back().front());

  const Matrix one(1, 1, 1.0f);
  std::uint32_t applied = 0;
  for (std::size_t p = 0; p < seq.num_predictions(); ++p) {
    const std::uint32_t k = seq.h_index[p];
    while (applied < k) {
      state = network.graph_update(state,
                                   row_input(seq.update_inputs, applied));
      exposed.push_back(state.back().front());
      ++applied;
    }
    if (seq.loss_weights[p] == 0.0f) continue;
    Variable logit = network.graph_predict_logit(
        exposed[k], row_input(seq.predict_inputs, p), rng);
    Matrix label(1, 1, seq.labels[p]);
    Matrix weight(1, 1, seq.loss_weights[p]);
    Variable term = bce_with_logits_sum(logit, label, weight);
    result.loss_sum =
        result.loss_sum.defined() ? add(result.loss_sum, term) : term;
    result.weight_sum += seq.loss_weights[p];
  }
  if (result.loss_sum.defined()) {
    result.loss_value = result.loss_sum.value()[0];
  }
  return result;
}

UserSequence build_sequence(const data::Dataset& dataset,
                            const data::UserLog& user,
                            const SequenceConfig& config, bool timeshift) {
  return timeshift ? build_timeshift_sequence(dataset, user, config)
                   : build_session_sequence(dataset, user, config);
}

}  // namespace

// ---------------------------------------------------------------- trainer

struct RnnTrainer::Impl {
  RnnNetwork& master;
  RnnTrainerConfig config;
  std::size_t threads;
  nn::Adam optimizer;
  std::vector<std::unique_ptr<RnnNetwork>> replicas;
  std::vector<Rng> replica_rngs;
  std::unique_ptr<ThreadPool> pool;
  Rng shuffle_rng;

  Impl(RnnNetwork& network, RnnTrainerConfig cfg)
      : master(network),
        config(cfg),
        threads(cfg.num_threads > 0
                    ? cfg.num_threads
                    : std::max<std::size_t>(
                          1, Thread::hardware_concurrency())),
        optimizer(network.parameters(), {.learning_rate = cfg.learning_rate}),
        shuffle_rng(cfg.seed) {
    if (config.strategy == BatchStrategy::kPerUserThreads) {
      Rng init_rng(cfg.seed ^ 0x5eedf00dull);
      for (std::size_t t = 0; t < threads; ++t) {
        replicas.push_back(
            std::make_unique<RnnNetwork>(master.config(), init_rng));
        replica_rngs.emplace_back(cfg.seed + 17 * (t + 1));
      }
      pool = std::make_unique<ThreadPool>(threads);
    } else {
      replica_rngs.emplace_back(cfg.seed + 17);
    }
  }

  /// One minibatch with per-user-thread parallelism (§7.1). Returns
  /// (mean loss, sessions processed).
  std::pair<double, std::size_t> minibatch_threaded(
      const data::Dataset& dataset, std::span<const std::size_t> users) {
    const std::size_t r_count = std::min(threads, users.size());
    std::vector<double> losses(r_count, 0), weights(r_count, 0);
    std::vector<std::size_t> sessions(r_count, 0);
    std::vector<std::future<void>> futures;
    for (std::size_t r = 0; r < r_count; ++r) {
      replicas[r]->copy_parameters_from(master);
      replicas[r]->zero_grad();
      replicas[r]->set_training(true);
      futures.push_back(pool->submit([&, r] {
        for (std::size_t i = r; i < users.size(); i += r_count) {
          const UserSequence seq = build_sequence(
              dataset, dataset.users[users[i]], config.sequence,
              config.timeshift);
          UserLossResult result =
              user_forward(*replicas[r], seq, replica_rngs[r]);
          if (result.loss_sum.defined()) {
            backward(result.loss_sum);
          }
          losses[r] += result.loss_value;
          weights[r] += result.weight_sum;
          sessions[r] += result.sessions;
        }
      }));
    }
    for (auto& f : futures) f.get();

    master.zero_grad();
    for (std::size_t r = 0; r < r_count; ++r) {
      replicas[r]->accumulate_grads_into(master);
    }
    const double total_weight =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    const double total_loss =
        std::accumulate(losses.begin(), losses.end(), 0.0);
    const std::size_t total_sessions =
        std::accumulate(sessions.begin(), sessions.end(), std::size_t{0});
    if (total_weight > 0) {
      apply_gradients(total_weight);
    }
    return {total_weight > 0 ? total_loss / total_weight : 0.0,
            total_sessions};
  }

  /// One minibatch on the master network, one user at a time.
  std::pair<double, std::size_t> minibatch_sequential(
      const data::Dataset& dataset, std::span<const std::size_t> users) {
    master.zero_grad();
    master.set_training(true);
    double total_loss = 0, total_weight = 0;
    std::size_t total_sessions = 0;
    for (const std::size_t u : users) {
      const UserSequence seq = build_sequence(dataset, dataset.users[u],
                                              config.sequence,
                                              config.timeshift);
      UserLossResult result = user_forward(master, seq, replica_rngs[0]);
      if (result.loss_sum.defined()) backward(result.loss_sum);
      total_loss += result.loss_value;
      total_weight += result.weight_sum;
      total_sessions += result.sessions;
    }
    if (total_weight > 0) apply_gradients(total_weight);
    return {total_weight > 0 ? total_loss / total_weight : 0.0,
            total_sessions};
  }

  /// Padded lockstep minibatch (§7.1 reference implementation): every user
  /// is stepped to the longest history in the batch; padded steps consume
  /// zero rows and feed no loss.
  std::pair<double, std::size_t> minibatch_padded(
      const data::Dataset& dataset, std::span<const std::size_t> users) {
    master.zero_grad();
    master.set_training(true);
    const std::size_t batch = users.size();
    std::vector<UserSequence> seqs;
    seqs.reserve(batch);
    std::size_t max_len = 0;
    std::size_t total_sessions = 0;
    for (const std::size_t u : users) {
      seqs.push_back(build_sequence(dataset, dataset.users[u],
                                    config.sequence, config.timeshift));
      max_len = std::max(max_len, seqs.back().num_updates());
      total_sessions += seqs.back().num_updates();
    }
    // Padded compute corresponds to batch * max_len step rows.
    const std::size_t width = master.config().update_input_size();

    // Step through all users in lockstep, caching exposed states.
    std::vector<nn::CellState> state;
    {
      state.reserve(master.config().num_layers);
      for (int l = 0; l < master.config().num_layers; ++l) {
        // Batched zero state.
        nn::CellState s;
        const std::size_t parts =
            master.config().cell == nn::CellType::kLstm ? 2 : 1;
        for (std::size_t part = 0; part < parts; ++part) {
          s.emplace_back(
              Matrix::zeros(batch, master.config().hidden_size));
        }
        state.push_back(std::move(s));
      }
    }
    std::vector<Variable> exposed;  // [B x H] per step, index 0 = h0
    exposed.reserve(max_len + 1);
    exposed.push_back(state.back().front());
    for (std::size_t step = 0; step < max_len; ++step) {
      Matrix x(batch, width);
      for (std::size_t b = 0; b < batch; ++b) {
        if (step < seqs[b].num_updates()) {
          std::memcpy(x.data() + b * width,
                      seqs[b].update_inputs.data() + step * width,
                      width * sizeof(float));
        }
      }
      state = master.graph_update(state, Variable(std::move(x)));
      exposed.push_back(state.back().front());
    }

    // Batched MLP head: predictions are grouped by the step depth k of
    // the hidden state they consume, and every group is scored as one
    // [n_k x d] graph_predict_logit batch — gather_rows pulls the group's
    // user rows out of exposed[k], and bce_with_logits_sum carries the
    // per-row labels/weights. One node chain per *step* instead of one
    // per prediction row, the same [B x d] batching the serving path uses.
    std::vector<std::vector<std::size_t>> group_rows(max_len + 1);
    std::vector<std::vector<std::size_t>> group_preds(max_len + 1);
    for (std::size_t b = 0; b < batch; ++b) {
      const UserSequence& seq = seqs[b];
      for (std::size_t p = 0; p < seq.num_predictions(); ++p) {
        if (seq.loss_weights[p] == 0.0f) continue;
        group_rows[seq.h_index[p]].push_back(b);
        group_preds[seq.h_index[p]].push_back(p);
      }
    }
    const std::size_t pred_cols = master.config().predict_input_size();
    Variable loss_sum;
    double total_weight = 0, loss_value = 0;
    for (std::size_t k = 0; k <= max_len; ++k) {
      const std::size_t n = group_rows[k].size();
      if (n == 0) continue;
      Matrix x(n, pred_cols);
      Matrix labels(n, 1);
      Matrix weights(n, 1);
      for (std::size_t r = 0; r < n; ++r) {
        const UserSequence& seq = seqs[group_rows[k][r]];
        const std::size_t p = group_preds[k][r];
        std::copy(seq.predict_inputs.row(p).begin(),
                  seq.predict_inputs.row(p).end(), x.row(r).begin());
        labels.at(r, 0) = seq.labels[p];
        weights.at(r, 0) = seq.loss_weights[p];
        total_weight += seq.loss_weights[p];
      }
      Variable h_block = gather_rows(exposed[k], std::move(group_rows[k]));
      Variable logits = master.graph_predict_logit(
          h_block, Variable(std::move(x)), replica_rngs[0]);
      Variable term = bce_with_logits_sum(logits, labels, weights);
      loss_sum = loss_sum.defined() ? add(loss_sum, term) : term;
    }
    if (loss_sum.defined()) {
      loss_value = loss_sum.value()[0];
      backward(loss_sum);
      apply_gradients(total_weight);
    }
    return {total_weight > 0 ? loss_value / total_weight : 0.0,
            total_sessions};
  }

  void apply_gradients(double total_weight) {
    const float inv = static_cast<float>(1.0 / total_weight);
    for (const auto& p : master.parameters()) {
      if (p.has_grad()) {
        const_cast<Variable&>(p).mutable_grad().scale_inplace(inv);
      }
    }
    if (config.grad_clip > 0) {
      nn::clip_grad_norm(master.parameters(), config.grad_clip);
    }
    optimizer.step();
  }
};

RnnTrainer::RnnTrainer(RnnNetwork& network, RnnTrainerConfig config)
    : impl_(std::make_unique<Impl>(network, config)) {}

RnnTrainer::~RnnTrainer() = default;

const RnnTrainerConfig& RnnTrainer::config() const { return impl_->config; }

void RnnTrainer::set_loss_from(std::int64_t loss_from) {
  impl_->config.sequence.loss_from = loss_from;
}

std::size_t RnnTrainer::optimizer_steps() const {
  return impl_->optimizer.step_count();
}

namespace {

void write_rng(BinaryWriter& writer, const Rng& rng) {
  const Rng::State s = rng.state();
  for (const std::uint64_t w : s.words) writer.write_u64(w);
  writer.write_f64(s.cached);
  writer.write_pod<std::uint8_t>(s.has_cached ? 1 : 0);
}

void read_rng(BinaryReader& reader, Rng& rng) {
  Rng::State s;
  for (auto& w : s.words) w = reader.read_u64();
  s.cached = reader.read_f64();
  s.has_cached = reader.read_pod<std::uint8_t>() != 0;
  rng.restore(s);
}

}  // namespace

void RnnTrainer::serialize_optimizer(BinaryWriter& writer) const {
  impl_->optimizer.serialize(writer);
  // The shuffle and per-replica dropout cursors are training state too: a
  // trainer restored without them re-draws minibatch orders from the seed,
  // so a resumed run would silently diverge from the uninterrupted one.
  write_rng(writer, impl_->shuffle_rng);
  writer.write_u64(impl_->replica_rngs.size());
  for (const Rng& rng : impl_->replica_rngs) write_rng(writer, rng);
}

void RnnTrainer::deserialize_optimizer(BinaryReader& reader) {
  impl_->optimizer.deserialize(reader);
  read_rng(reader, impl_->shuffle_rng);
  if (const std::uint64_t n = reader.read_u64();
      n != impl_->replica_rngs.size()) {
    throw std::runtime_error(
        "RnnTrainer: checkpoint carries " + std::to_string(n) +
        " replica RNG streams but this trainer has " +
        std::to_string(impl_->replica_rngs.size()) +
        " (strategy/thread-count mismatch)");
  }
  for (Rng& rng : impl_->replica_rngs) read_rng(reader, rng);
}

TrainingCurve RnnTrainer::fit(const data::Dataset& dataset,
                              std::span<const std::size_t> user_indices) {
  TrainingCurve curve;
  std::vector<std::size_t> order(user_indices.begin(), user_indices.end());
  std::size_t cumulative_sessions = 0;
  for (int epoch = 0; epoch < impl_->config.epochs; ++epoch) {
    impl_->shuffle_rng.shuffle(order);
    double epoch_loss = 0;
    std::size_t epoch_batches = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += impl_->config.minibatch_users) {
      const std::size_t end =
          std::min(begin + impl_->config.minibatch_users, order.size());
      const std::span<const std::size_t> batch(order.data() + begin,
                                               end - begin);
      std::pair<double, std::size_t> result;
      switch (impl_->config.strategy) {
        case BatchStrategy::kPerUserThreads:
          result = impl_->minibatch_threaded(dataset, batch);
          break;
        case BatchStrategy::kPaddedBatch:
          result = impl_->minibatch_padded(dataset, batch);
          break;
        case BatchStrategy::kSequential:
          result = impl_->minibatch_sequential(dataset, batch);
          break;
      }
      cumulative_sessions += result.second;
      curve.sessions_processed.push_back(cumulative_sessions);
      curve.minibatch_loss.push_back(result.first);
      epoch_loss += result.first;
      ++epoch_batches;
    }
    curve.epoch_boundaries.push_back(cumulative_sessions);
    curve.final_epoch_mean_loss =
        epoch_batches > 0 ? epoch_loss / static_cast<double>(epoch_batches)
                          : 0.0;
  }
  impl_->master.set_training(false);
  // The int8 serving replicas mirror the f32 weights just trained;
  // refresh an enabled quantized mode so it never scores stale.
  if (impl_->master.quantized_ready()) impl_->master.prepare_quantized();
  return curve;
}

// ---------------------------------------------------------------- scoring

namespace {

/// Shared tape-free replay scaffold of score_users / score_users_q8: the
/// per-user sequence walk with lazy update application, the
/// [emit_from, emit_to) emission filter, ~256-row blocks through the
/// batched RNNpredict head, optional per-user thread fan-out, and the
/// deterministic (user-order) series merge. `Scorer` (scorer.hpp) supplies
/// the numerics serving runs, so the f32 and int8 replays cannot drift
/// apart in emission semantics (the prequential gate compares their series
/// 1:1).
template <typename Scorer>
ScoredSeries replay_users(const Scorer& scorer, const data::Dataset& dataset,
                          std::span<const std::size_t> user_indices,
                          const SequenceConfig& sequence_config,
                          bool timeshift, std::int64_t emit_from,
                          std::int64_t emit_to, std::size_t num_threads) {
  std::vector<ScoredSeries> partial(user_indices.size());
  auto score_one = [&](std::size_t i) {
    const UserSequence seq =
        build_sequence(dataset, dataset.users[user_indices[i]],
                       sequence_config, timeshift);
    std::vector<std::size_t> emitted;
    for (std::size_t p = 0; p < seq.num_predictions(); ++p) {
      const std::int64_t ts = seq.timestamps[p];
      if (ts >= emit_from && (emit_to == 0 || ts < emit_to)) {
        emitted.push_back(p);
      }
    }
    typename Scorer::State state = scorer.cold();
    std::uint32_t applied = 0;
    constexpr std::size_t kBlock = 256;
    for (std::size_t begin = 0; begin < emitted.size(); begin += kBlock) {
      const std::size_t n = std::min(kBlock, emitted.size() - begin);
      typename Scorer::Block hidden(n, state.hidden().cols());
      Matrix x(n, seq.predict_inputs.cols());
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t p = emitted[begin + r];
        for (; applied < seq.h_index[p]; ++applied) {
          scorer.update(state, row_copy(seq.update_inputs, applied));
        }
        scorer.gather(hidden, r, state);
        std::copy(seq.predict_inputs.row(p).begin(),
                  seq.predict_inputs.row(p).end(), x.row(r).begin());
      }
      const std::vector<double> scores = scorer.score(hidden, x);
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t p = emitted[begin + r];
        partial[i].append(scores[r], seq.labels[p], seq.timestamps[p]);
      }
    }
  };
  if (num_threads > 1 && user_indices.size() > 1) {
    ThreadPool pool(num_threads);
    pool.parallel_for(user_indices.size(), score_one);
  } else {
    for (std::size_t i = 0; i < user_indices.size(); ++i) score_one(i);
  }
  ScoredSeries out;
  for (const auto& s : partial) out.append_series(s);
  return out;
}

}  // namespace

ScoredSeries score_users(const RnnNetwork& network,
                         const data::Dataset& dataset,
                         std::span<const std::size_t> user_indices,
                         const SequenceConfig& sequence_config,
                         bool timeshift, std::int64_t emit_from,
                         std::int64_t emit_to, std::size_t num_threads) {
  return replay_users(F32Scorer(network), dataset, user_indices,
                      sequence_config, timeshift, emit_from, emit_to,
                      num_threads);
}

ScoredSeries score_users_q8(const RnnNetwork& network,
                            const data::Dataset& dataset,
                            std::span<const std::size_t> user_indices,
                            const SequenceConfig& sequence_config,
                            bool timeshift, std::int64_t emit_from,
                            std::int64_t emit_to, std::size_t num_threads) {
  return replay_users(Int8Scorer(network), dataset, user_indices,
                      sequence_config, timeshift, emit_from, emit_to,
                      num_threads);
}

void ScoredSeries::append_series(const ScoredSeries& other) {
  scores.insert(scores.end(), other.scores.begin(), other.scores.end());
  labels.insert(labels.end(), other.labels.begin(), other.labels.end());
  timestamps.insert(timestamps.end(), other.timestamps.begin(),
                    other.timestamps.end());
}

ScoredSeries ScoredSeries::filter_time(std::int64_t from,
                                       std::int64_t to) const {
  ScoredSeries out;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (timestamps[i] >= from && (to == 0 || timestamps[i] < to)) {
      out.append(scores[i], labels[i], timestamps[i]);
    }
  }
  return out;
}

}  // namespace pp::train
