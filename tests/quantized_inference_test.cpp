// End-to-end int8 quantized inference (the §9 single-byte serving path):
//
//  * layer-level parity of the int8 replicas against their f32 twins,
//  * batched-vs-single bit-transparency of the quantized RNNpredict head,
//  * wire interop between the generic kInt8 codec and the raw q8 store
//    accessors (no f32 round trip),
//  * a golden accuracy regression — a trained model scores a held-out
//    window through the f32 and int8 serving paths and the PR-AUC delta /
//    decision-flip rate must stay inside the quantization error budget,
//  * threaded + sharded int8 serving bit-identical to its own sequential
//    replay (the PR 2 stress harness, quantized),
//  * the gate sigmoid/tanh: the AVX2 lane bit-identical to the scalar
//    twin over a dense sweep, within a stated ulp bound of double,
//  * the fused int8 step and head bit-identical to the unfused qgemm()
//    chain on every kernel lane (portable, AVX2, AVX-512 VNNI),
//  * the fused f32 head, which shares the int8 one's shape, bit
//    identical to its unfused Linear::infer chain on every kernel,
//  * and the f32 GRU, LSTM and tanh steps, whose gates run the same
//    lanes, bit identical to a scalar reference on every kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.hpp"
#include "eval/metrics.hpp"
#include "models/rnn_model.hpp"
#include "serving/precompute_service.hpp"
#include "serving_test_util.hpp"
#include "tensor/cpu_dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_simd.hpp"
#include "tensor/vmath.hpp"
#include "train/sequence.hpp"
#include "util/math.hpp"

namespace pp::serving {
namespace {

data::Dataset quant_dataset(std::size_t users, int days) {
  data::MobileTabConfig config;
  config.num_users = users;
  config.days = days;
  return data::generate_mobile_tab(config);
}

models::RnnModel make_model(const data::Dataset& dataset,
                            std::size_t hidden = 16) {
  models::RnnModelConfig config;
  config.hidden_size = hidden;
  config.mlp_hidden = hidden;
  models::RnnModel model(dataset, config);
  model.enable_quantized_serving();
  return model;
}

TEST(QuantizedLinear, TracksF32LayerWithinQuantizationBudget) {
  Rng rng(5);
  nn::Linear layer(24, 10, rng);
  nn::QuantizedLinear qlayer(layer);
  const tensor::Matrix x = tensor::Matrix::randn(3, 24, rng, 0.0f, 0.8f);
  const tensor::Matrix ref = layer.infer(x);
  const tensor::Matrix out =
      qlayer.infer(tensor::QuantizedMatrix::quantize_rows(x));
  // Error budget: each operand is within half a quantization step, so the
  // dot product of k=24 terms stays within a few steps of the f32 result.
  float budget = 0.0f;
  for (std::size_t b = 0; b < 3; ++b) {
    float row_max = 0.0f;
    for (std::size_t j = 0; j < 24; ++j) {
      row_max = std::max(row_max, std::abs(x.at(b, j)));
    }
    budget = std::max(budget, row_max);
  }
  budget = 24.0f * (budget / 127.0f);  // k * (input step + weight step) scale
  EXPECT_TRUE(out.approx_equal(ref, budget));
  // The layer really is int8: no f32 weight matrix reachable from it.
  EXPECT_EQ(qlayer.weight().size(),
            layer.in_features() * layer.out_features());
}

TEST(QuantizedGru, StepTracksF32CellAndReencodesState) {
  const auto dataset = quant_dataset(4, 3);
  const models::RnnModel model = make_model(dataset);
  const train::RnnNetwork& net = model.network();

  Rng rng(9);
  const tensor::Matrix x = tensor::Matrix::rand_uniform(
      1, net.config().update_input_size(), rng, 0.0f, 1.0f);
  train::InferenceState f32_state = net.infer_initial_state();
  train::QuantizedInferenceState q8_state = net.infer_initial_state_q8();
  for (int step = 0; step < 12; ++step) {
    net.infer_update(f32_state, x);
    net.infer_update_q8(q8_state, x);
  }
  // Per-step error is bounded by the state re-encoding (scale/2 per
  // element, |h| <= 1 so scale <= 1/127) plus the int8 gate products;
  // twelve steps must not drift beyond a few quantization steps.
  const tensor::Matrix decoded = q8_state.hidden().dequantize();
  EXPECT_TRUE(decoded.approx_equal(f32_state.hidden(), 0.08f));
  EXPECT_GT(decoded.map([](float v) { return std::abs(v); }).sum(), 0.0);
}

TEST(QuantizedPredictHead, BatchedMatchesSingleExactly) {
  const auto dataset = quant_dataset(4, 3);
  const models::RnnModel model = make_model(dataset);
  const train::RnnNetwork& net = model.network();
  const std::size_t H = net.config().hidden_size;
  const std::size_t B = 9;

  Rng rng(13);
  // Per-row int8 states with deliberately different scales per row.
  tensor::QuantizedMatrix h_block(B, H);
  for (std::size_t b = 0; b < B; ++b) {
    const tensor::Matrix row =
        tensor::Matrix::randn(1, H, rng, 0.0f, 0.1f + 0.1f * b);
    const tensor::QuantizedMatrix q = tensor::QuantizedMatrix::quantize(row);
    std::copy_n(q.data(), H, h_block.row_data(b));
    h_block.set_row_scale(b, q.scale());
  }
  const tensor::Matrix x_block = tensor::Matrix::rand_uniform(
      B, net.config().predict_input_size(), rng, 0.0f, 1.0f);

  const std::vector<double> batched = net.infer_logits_q8(h_block, x_block);
  ASSERT_EQ(batched.size(), B);
  for (std::size_t b = 0; b < B; ++b) {
    tensor::QuantizedMatrix h_one(1, H);
    std::copy_n(h_block.row_data(b), H, h_one.row_data(0));
    h_one.set_row_scale(0, h_block.scale(b));
    tensor::Matrix x_one(1, x_block.cols());
    std::copy_n(x_block.row(b).data(), x_block.cols(), x_one.data());
    const std::vector<double> single = net.infer_logits_q8(h_one, x_one);
    // Bit-identical: per-row activation quantization + exact integer
    // accumulation make batching transparent.
    EXPECT_EQ(batched[b], single.front()) << "row " << b;
  }
}

TEST(HiddenStoreQ8, RawAccessorsInteropWithInt8Codec) {
  const auto dataset = quant_dataset(4, 3);
  const models::RnnModel model = make_model(dataset, 8);
  const train::RnnNetwork& net = model.network();

  LocalKvStore kv;
  HiddenStateStore store(kv, StateCodec::kInt8);

  // put (f32 encode) -> get_q8: the raw bytes equal the codec's encoding.
  StoredState f32_state;
  f32_state.state = net.infer_initial_state();
  Rng rng(3);
  f32_state.state.layers[0][0] = tensor::Matrix::randn(1, 8, rng, 0.0f, 0.4f);
  f32_state.last_update_time = 777;
  f32_state.updates = 3;
  store.put(1, f32_state);
  const auto q8 = store.get_q8(1, net);
  ASSERT_TRUE(q8.has_value());
  EXPECT_EQ(q8->last_update_time, 777);
  EXPECT_EQ(q8->updates, 3u);
  const tensor::QuantizedMatrix expected =
      tensor::QuantizedMatrix::quantize(f32_state.state.layers[0][0]);
  EXPECT_EQ(q8->state.hidden().storage(), expected.storage());
  EXPECT_EQ(q8->state.hidden().scale(), expected.scale());

  // put_q8 -> get: the f32 API decodes the same record.
  QuantizedStoredState back = *q8;
  back.updates = 4;
  store.put_q8(2, back);
  const auto decoded = store.get(2, net);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->updates, 4u);
  EXPECT_EQ(decoded->state.hidden(), q8->state.hidden().dequantize());

  // Cold user and codec guard.
  EXPECT_FALSE(store.get_q8(99, net).has_value());
  LocalKvStore kv_f32;
  HiddenStateStore wrong(kv_f32, StateCodec::kFloat32);
  EXPECT_THROW(wrong.get_q8(1, net), std::logic_error);

  // Geometry guard: a record written by a differently-sized model must
  // fail loudly instead of feeding an out-of-bounds read downstream.
  const models::RnnModel other = make_model(dataset, 16);
  EXPECT_THROW(store.get_q8(1, other.network()), std::runtime_error);
}

TEST(RnnPolicyInt8, ConstructionGuards) {
  const auto dataset = quant_dataset(4, 3);
  LocalKvStore kv;

  // f32-codec store cannot back an int8 policy.
  models::RnnModel model = make_model(dataset, 8);
  HiddenStateStore f32_store(kv, StateCodec::kFloat32);
  EXPECT_THROW(RnnPolicy(model, f32_store, ScorePrecision::kInt8),
               std::invalid_argument);

  // Quantized weights must be prepared before the policy exists.
  models::RnnModelConfig config;
  config.hidden_size = 8;
  config.mlp_hidden = 8;
  const models::RnnModel unprepared(dataset, config);
  HiddenStateStore i8_store(kv, StateCodec::kInt8);
  EXPECT_THROW(RnnPolicy(unprepared, i8_store, ScorePrecision::kInt8),
               std::invalid_argument);

  // Non-GRU cells have no quantized path at all.
  models::RnnModelConfig lstm_config;
  lstm_config.hidden_size = 8;
  lstm_config.mlp_hidden = 8;
  lstm_config.cell = nn::CellType::kLstm;
  models::RnnModel lstm(dataset, lstm_config);
  EXPECT_THROW(lstm.enable_quantized_serving(), std::invalid_argument);
}

TEST(RnnPolicyInt8, BatchedScoringMatchesSingleExactly) {
  const auto dataset = quant_dataset(30, 5);
  const models::RnnModel model = make_model(dataset);

  LocalKvStore kv_seq, kv_batch;
  HiddenStateStore store_seq(kv_seq, StateCodec::kInt8);
  HiddenStateStore store_batch(kv_batch, StateCodec::kInt8);
  RnnPolicy sequential(model, store_seq, ScorePrecision::kInt8);
  RnnPolicy batched(model, store_batch, ScorePrecision::kInt8);

  for (std::uint64_t u = 0; u < 8; ++u) {
    for (int s = 0; s < 2; ++s) {
      JoinedSession joined;
      joined.session_id = u * 10 + static_cast<std::uint64_t>(s);
      joined.user_id = u;
      joined.session_start =
          1000000 + static_cast<std::int64_t>(u) * 500 + s * 7200;
      joined.context = {static_cast<std::uint32_t>(u % 5), 1, 0, 0};
      joined.access = (u + static_cast<std::uint64_t>(s)) % 2 == 0;
      sequential.on_session_complete(joined);
      batched.on_session_complete(joined);
    }
  }

  std::vector<SessionStart> starts;
  for (std::uint64_t u = 0; u < 16; ++u) {
    SessionStart s;
    s.session_id = 100 + u;
    s.user_id = u;
    s.t = 1100000 + static_cast<std::int64_t>(u) * 333;
    s.context = {static_cast<std::uint32_t>(u % 7), 0, 0, 0};
    starts.push_back(s);
  }
  const std::vector<double> batch_scores = batched.score_sessions(starts);
  ASSERT_EQ(batch_scores.size(), starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(batch_scores[i],
              sequential.score_session(starts[i].user_id, starts[i].t,
                                       starts[i].context))
        << "session " << i;
  }
  EXPECT_EQ(batched.cost_summary().predictions,
            sequential.cost_summary().predictions);
  EXPECT_EQ(batched.cost_summary().model_flops,
            sequential.cost_summary().model_flops);
}

/// Replays the held-out users' sessions chronologically through a policy:
/// every session is scored before being folded into the state, and
/// sessions at or after `collect_from` contribute (score, label) pairs.
void replay_users(const data::Dataset& dataset,
                  const std::vector<std::size_t>& users, RnnPolicy& policy,
                  std::int64_t collect_from, std::vector<double>& scores,
                  std::vector<float>& labels) {
  std::uint64_t sid = 1;
  for (const std::size_t u : users) {
    const data::UserLog& log = dataset.users[u];
    for (const data::Session& session : log.sessions) {
      const double score =
          policy.score_session(u, session.timestamp, session.context);
      if (session.timestamp >= collect_from) {
        scores.push_back(score);
        labels.push_back(session.access ? 1.0f : 0.0f);
      }
      JoinedSession joined;
      joined.session_id = sid++;
      joined.user_id = u;
      joined.session_start = session.timestamp;
      joined.context = session.context;
      joined.access = session.access != 0;
      policy.on_session_complete(joined);
    }
  }
}

TEST(QuantizedInference, GoldenAccuracyWithinBudget) {
  // Train a small RNN, then score a held-out window through the f32 and
  // int8 serving paths. Quantization error compounds through the GRU
  // steps, so this is the end-to-end guard: PR-AUC delta < 0.01 and
  // decision flips < 1%.
  const auto dataset = quant_dataset(160, 12);
  std::vector<std::size_t> train_users(120);
  std::iota(train_users.begin(), train_users.end(), 0);
  std::vector<std::size_t> held_out;
  for (std::size_t u = 120; u < 160; ++u) held_out.push_back(u);

  models::RnnModelConfig config;
  config.hidden_size = 16;
  config.mlp_hidden = 16;
  config.epochs = 2;
  config.num_threads = 2;
  config.truncate_history = 100;
  models::RnnModel model(dataset, config);
  model.fit(dataset, train_users);
  model.enable_quantized_serving();

  LocalKvStore kv_f32, kv_i8;
  HiddenStateStore store_f32(kv_f32, StateCodec::kFloat32);
  HiddenStateStore store_i8(kv_i8, StateCodec::kInt8);
  RnnPolicy policy_f32(model, store_f32, ScorePrecision::kFloat32);
  RnnPolicy policy_i8(model, store_i8, ScorePrecision::kInt8);

  const std::int64_t holdout_from = dataset.end_time - 3 * 86400;
  std::vector<double> scores_f32, scores_i8;
  std::vector<float> labels_f32, labels_i8;
  replay_users(dataset, held_out, policy_f32, holdout_from, scores_f32,
               labels_f32);
  replay_users(dataset, held_out, policy_i8, holdout_from, scores_i8,
               labels_i8);
  ASSERT_EQ(scores_f32.size(), scores_i8.size());
  ASSERT_EQ(labels_f32, labels_i8);
  ASSERT_GT(scores_f32.size(), 100u);  // enough mass for a stable PR-AUC

  const double auc_f32 = eval::pr_auc(scores_f32, labels_f32);
  const double auc_i8 = eval::pr_auc(scores_i8, labels_i8);
  EXPECT_LT(std::abs(auc_f32 - auc_i8), 0.01)
      << "f32 " << auc_f32 << " vs int8 " << auc_i8;

  const double threshold = 0.5;
  std::size_t flips = 0;
  double max_delta = 0.0;
  for (std::size_t i = 0; i < scores_f32.size(); ++i) {
    flips += (scores_f32[i] >= threshold) != (scores_i8[i] >= threshold);
    max_delta = std::max(max_delta, std::abs(scores_f32[i] - scores_i8[i]));
  }
  EXPECT_LT(static_cast<double>(flips),
            0.01 * static_cast<double>(scores_f32.size()))
      << "flips " << flips << " of " << scores_f32.size()
      << " (max |Δscore| " << max_delta << ")";

  // The int8 tier holds the accuracy above on 1-byte-per-dimension state
  // payloads (4 bytes/dim in f32; the serving_test footprint case checks
  // the ~4x total-record ratio at the paper's d=128, where payload
  // dominates framing). Here: same live users, exact record accounting.
  EXPECT_EQ(kv_i8.size(), kv_f32.size());
  EXPECT_EQ(kv_i8.value_bytes(),
            kv_i8.size() * store_i8.encoded_bytes(model.network()));
  EXPECT_EQ(kv_f32.value_bytes(),
            kv_f32.size() * store_f32.encoded_bytes(model.network()));
  // record = 16B header + 4B parts + 8B dims + 4B scale + 1 byte/dim.
  EXPECT_EQ(store_i8.encoded_bytes(model.network()),
            16u + 4u + 8u + 4u + config.hidden_size);
  EXPECT_EQ(store_f32.encoded_bytes(model.network()),
            16u + 4u + 8u + 4u * config.hidden_size);
}

TEST(QuantizedInference, ThreadedShardedReplayMatchesSequentialExactly) {
  // The serving stress harness, int8 edition: batched session starts
  // against a ShardedKvStore, driven on their own caller thread, must be
  // bit-identical to the same int8 policy replayed sequentially on this
  // one — decisions, cost ledger, joiner stats, and online metrics.
  const auto dataset = quant_dataset(40, 4);
  const models::RnnModel model = make_model(dataset, 12);

  LocalKvStore kv_seq;
  ShardedKvStore kv_par(8);
  HiddenStateStore store_seq(kv_seq, StateCodec::kInt8);
  HiddenStateStore store_par(kv_par, StateCodec::kInt8);
  RnnPolicy policy_seq(model, store_seq, ScorePrecision::kInt8);
  RnnPolicy policy_par(model, store_par, ScorePrecision::kInt8);
  PrecomputeService service_seq(policy_seq, 0.5, 100, 10, 0);
  PrecomputeService service_par(policy_par, 0.5, 100, 10, 0);

  std::uint64_t sid = 1;
  std::int64_t base = 1000;
  for (int round = 0; round < 5; ++round) {
    // Mixed timestamps (joins fire mid-batch and cut scoring groups),
    // duplicate users including same-instant duplicates, shuffled order.
    std::vector<SessionStart> batch;
    for (std::uint64_t u = 0; u < 24; ++u) {
      SessionStart s;
      s.session_id = sid++;
      s.user_id = (u * 7 + static_cast<std::uint64_t>(round)) % 20;
      s.t = base + static_cast<std::int64_t>((u * 53) % 300);
      s.context = {static_cast<std::uint32_t>(u % 5), 0, 0, 0};
      batch.push_back(s);
    }
    batch[5].user_id = batch[2].user_id;
    batch[5].t = batch[2].t;
    std::swap(batch[0], batch[17]);
    std::swap(batch[3], batch[11]);

    std::vector<bool> par_decisions;
    std::thread par_caller(
        [&] { par_decisions = service_par.on_session_starts(batch); });
    std::vector<bool> seq_decisions(batch.size());
    for (const std::size_t i : time_order(batch)) {
      seq_decisions[i] = service_seq.on_session_start(
          batch[i].session_id, batch[i].user_id, batch[i].t,
          batch[i].context);
    }
    par_caller.join();
    EXPECT_EQ(par_decisions, seq_decisions) << "round " << round;

    for (std::size_t i = 0; i < batch.size(); i += 2) {
      service_par.on_access(batch[i].session_id, batch[i].t + 50);
      service_seq.on_access(batch[i].session_id, batch[i].t + 50);
    }
    base += 500;
  }

  service_par.flush();
  service_seq.flush();
  expect_equal_ledgers(policy_par.cost_summary(), policy_seq.cost_summary());
  EXPECT_EQ(service_par.metrics().predictions(),
            service_seq.metrics().predictions());
  EXPECT_EQ(service_par.metrics().prefetches(),
            service_seq.metrics().prefetches());
  EXPECT_EQ(service_par.metrics().successful_prefetches(),
            service_seq.metrics().successful_prefetches());
  EXPECT_EQ(service_par.joiner_stats().joined,
            service_seq.joiner_stats().joined);
  EXPECT_GT(service_par.joiner_stats().joined, 0u);
  // The int8 states really are what the store holds: a warm store whose
  // every record is the compact int8 record.
  EXPECT_GT(kv_par.size(), 0u);
  EXPECT_EQ(kv_par.value_bytes(),
            kv_par.size() * store_par.encoded_bytes(model.network()));
}

TEST(ScoreUsersQ8, MatchesPerPredictionQuantizedReplayExactly) {
  // The offline int8 replay (used by golden-accuracy checks and the
  // online prequential gate) batches emitted predictions through
  // infer_logits_q8 in ~256-row blocks; per-row activation quantization
  // keeps that bit-identical to this hand-rolled per-prediction replay —
  // 240 days x ~2 sessions/day pushes users across the block boundary.
  const auto dataset = quant_dataset(4, 240);
  const models::RnnModel model = make_model(dataset, 12);
  const train::RnnNetwork& net = model.network();
  std::vector<std::size_t> users(dataset.users.size());
  std::iota(users.begin(), users.end(), 0);

  const train::ScoredSeries series = train::score_users_q8(
      net, dataset, users, model.sequence_config(), false, 0, 0, 2);

  train::ScoredSeries ref;
  std::size_t max_user_predictions = 0;
  const std::size_t hidden = net.config().hidden_size;
  for (const std::size_t u : users) {
    const train::UserSequence seq = train::build_session_sequence(
        dataset, dataset.users[u], model.sequence_config());
    max_user_predictions =
        std::max(max_user_predictions, seq.num_predictions());
    train::QuantizedInferenceState state = net.infer_initial_state_q8();
    std::uint32_t applied = 0;
    for (std::size_t p = 0; p < seq.num_predictions(); ++p) {
      while (applied < seq.h_index[p]) {
        tensor::Matrix x(1, seq.update_inputs.cols());
        std::copy(seq.update_inputs.row(applied).begin(),
                  seq.update_inputs.row(applied).end(), x.row(0).begin());
        net.infer_update_q8(state, x);
        ++applied;
      }
      tensor::QuantizedMatrix h_one(1, hidden);
      std::copy(state.hidden().data(), state.hidden().data() + hidden,
                h_one.row_data(0));
      h_one.set_row_scale(0, state.hidden().scale());
      tensor::Matrix x_one(1, seq.predict_inputs.cols());
      std::copy(seq.predict_inputs.row(p).begin(),
                seq.predict_inputs.row(p).end(), x_one.row(0).begin());
      ref.append(pp::sigmoid(net.infer_logits_q8(h_one, x_one).front()),
                 seq.labels[p], seq.timestamps[p]);
    }
  }
  EXPECT_GT(max_user_predictions, 256u);  // the flush boundary is crossed
  ASSERT_EQ(series.scores.size(), ref.scores.size());
  for (std::size_t i = 0; i < ref.scores.size(); ++i) {
    EXPECT_EQ(series.scores[i], ref.scores[i]) << "prediction " << i;
    EXPECT_EQ(series.labels[i], ref.labels[i]);
    EXPECT_EQ(series.timestamps[i], ref.timestamps[i]);
  }
  // Same emission schedule as the f32 replay (labels/timestamps align),
  // so gate comparisons of f32 vs int8 series are apples to apples.
  const train::ScoredSeries f32 = train::score_users(
      net, dataset, users, model.sequence_config(), false, 0, 0, 2);
  ASSERT_EQ(f32.timestamps.size(), series.timestamps.size());
  EXPECT_EQ(f32.timestamps, series.timestamps);
  EXPECT_EQ(f32.labels, series.labels);

  // Guard: the q8 replay requires prepared replicas.
  models::RnnModelConfig plain_config;
  plain_config.hidden_size = 12;
  plain_config.mlp_hidden = 12;
  const models::RnnModel plain(dataset, plain_config);
  EXPECT_THROW(train::score_users_q8(plain.network(), dataset, users,
                                     plain.sequence_config(), false),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// The fused int8 step and head, and the gate sigmoid/tanh they share.

float float_from_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

std::uint32_t bits_of(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// |y - ref| in units in the last place of ref rounded to float.
double ulp_error(float y, double ref) {
  if (ref == 0.0) return y == 0.0f ? 0.0 : HUGE_VAL;
  const int exponent = std::max(std::ilogb(ref), -126);
  return std::fabs(static_cast<double>(y) - ref) /
         std::ldexp(1.0, exponent - 23);
}

using ArrayFn = void (*)(const float*, float*, std::size_t);

/// Index of the first element whose bits differ, or npos.
std::size_t first_bit_mismatch(const std::vector<float>& got,
                               const std::vector<float>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (bits_of(got[i]) != bits_of(want[i])) return i;
  }
  return std::string::npos;
}

TEST(GateMath, VectorLaneMatchesScalarTwinWithinUlpBound) {
  // Dense sweep: every 997th float bit pattern with |x| < 88, both signs
  // (about 2.2M inputs), which spans the whole non-saturated range of
  // both functions, plus the special values and clamp boundaries.
  constexpr std::uint32_t kStride = 997;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs;
  for (const std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t bits = 0; bits < bits_of(88.0f); bits += kStride) {
      xs.push_back(float_from_bits(bits | sign));
    }
    for (const float v :
         {0.0f, inf, std::numeric_limits<float>::quiet_NaN(),
          float_from_bits(0x7fc12345u), float_from_bits(0x7f800001u),
          87.0f, std::nextafter(87.0f, 0.0f), std::nextafter(87.0f, inf),
          88.0f, 17.0f, 9.0f, 9.1f, 43.5f, 0.625f,
          std::nextafter(0.625f, 0.0f), std::nextafter(0.625f, inf),
          std::numeric_limits<float>::min(),
          std::numeric_limits<float>::denorm_min(),
          std::numeric_limits<float>::max(), 1e30f}) {
      xs.push_back(float_from_bits(bits_of(v) | sign));
    }
  }
  const std::size_t n = xs.size();
  std::vector<float> want_s(n), want_t(n), got(n);
  for (std::size_t i = 0; i < n; ++i) {
    want_s[i] = tensor::sigmoid_f32(xs[i]);
    want_t[i] = tensor::tanh_f32(xs[i]);
  }

  // The AVX2 lane (where this host runs it) returns the scalar twin's
  // bits, NaN payloads included; so do the dispatched entry points, in
  // place too.
  const auto check = [&](const std::string& what, ArrayFn fn,
                         const std::vector<float>& want, bool in_place) {
    if (in_place) {
      got = xs;
      fn(got.data(), got.data(), n);
    } else {
      fn(xs.data(), got.data(), n);
    }
    const std::size_t bad = first_bit_mismatch(got, want);
    EXPECT_EQ(bad, std::string::npos)
        << what << ": x = " << xs[bad] << " gives " << got[bad]
        << ", scalar twin " << want[bad];
  };
  if (tensor::gemm_simd_available()) {
    check("avx2 sigmoid", tensor::simd::sigmoid_f32_avx2, want_s, false);
    check("avx2 tanh", tensor::simd::tanh_f32_avx2, want_t, false);
  }
  for (const tensor::GemmKernel kernel :
       {tensor::GemmKernel::kBlocked, tensor::GemmKernel::kSimd}) {
    tensor::GemmConfigScope scope(kernel);
    const std::string name = tensor::gemm_kernel_name(kernel);
    check(name + " sigmoid", tensor::sigmoid_f32, want_s, true);
    check(name + " tanh", tensor::tanh_f32, want_t, true);
  }

  // Accuracy against double precision on the non-saturated ranges.
  // Sweeps of every 11th and every 61st float measured at most 2.33 ulp
  // (sigmoid) and 1.50 ulp (tanh).
  double worst_s = 0.0, worst_t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = xs[i];
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(want_s[i]) && std::isnan(want_t[i]));
      continue;
    }
    const double xd = x;
    if (std::fabs(x) <= 87.0f) {
      worst_s = std::max(worst_s,
                         ulp_error(want_s[i], 1.0 / (1.0 + std::exp(-xd))));
    }
    if (std::fabs(x) <= 9.0f) {
      worst_t = std::max(worst_t, ulp_error(want_t[i], std::tanh(xd)));
    }
  }
  EXPECT_LE(worst_s, 3.0);
  EXPECT_LE(worst_t, 2.0);

  // Saturation, clamps and signed zeros.
  EXPECT_EQ(tensor::sigmoid_f32(0.0f), 0.5f);
  EXPECT_EQ(tensor::sigmoid_f32(-0.0f), 0.5f);
  EXPECT_EQ(tensor::sigmoid_f32(17.0f), 1.0f);
  EXPECT_EQ(tensor::sigmoid_f32(inf), 1.0f);
  EXPECT_EQ(tensor::sigmoid_f32(-inf), tensor::sigmoid_f32(-87.0f));
  EXPECT_GT(tensor::sigmoid_f32(-inf), 0.0f);
  EXPECT_LT(tensor::sigmoid_f32(-inf), 2e-38f);
  EXPECT_EQ(tensor::tanh_f32(9.1f), 1.0f);
  EXPECT_EQ(tensor::tanh_f32(inf), 1.0f);
  EXPECT_EQ(tensor::tanh_f32(-inf), -1.0f);
  EXPECT_EQ(bits_of(tensor::tanh_f32(-0.0f)), bits_of(-0.0f));
  const float tiny = std::numeric_limits<float>::denorm_min();
  EXPECT_EQ(tensor::tanh_f32(tiny), tiny);
  EXPECT_EQ(tensor::tanh_f32(-tiny), -tiny);
}

/// A GRU cell with random nonzero biases (trained biases are never zero).
std::unique_ptr<nn::GruCell> random_gru(std::size_t input, std::size_t hidden,
                                        Rng& rng) {
  auto cell = std::make_unique<nn::GruCell>(input, hidden, rng);
  for (autograd::Variable bias : {cell->bx(), cell->bh()}) {
    bias.mutable_value() = tensor::Matrix::randn(1, 3 * hidden, rng, 0.0f, 0.5f);
  }
  return cell;
}

/// [rows x cols] inputs shaped like serving rows: mostly zeros (whole zero
/// k-quads among them) around a few dense values, and a last row that is
/// all zero when there are several rows.
tensor::Matrix sparse_rows(std::size_t rows, std::size_t cols, Rng& rng) {
  tensor::Matrix x(rows, cols);
  for (std::size_t b = 0; b < rows; ++b) {
    if (rows > 1 && b + 1 == rows) break;
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.uniform() < 0.3) x.at(b, j) = static_cast<float>(rng.normal());
    }
  }
  return x;
}

/// [rows x hidden] int8 state with a different scale per row.
tensor::QuantizedMatrix random_state(std::size_t rows, std::size_t hidden,
                                     Rng& rng) {
  tensor::QuantizedMatrix h(rows, hidden);
  for (std::size_t b = 0; b < rows; ++b) {
    const tensor::QuantizedMatrix row = tensor::QuantizedMatrix::quantize(
        tensor::Matrix::randn(1, hidden, rng, 0.0f, 0.2f + 0.1f * b));
    std::copy_n(row.data(), hidden, h.row_data(b));
    h.set_row_scale(b, row.scale());
  }
  return h;
}

/// The unfused int8 GRU step: qgemm() products over quantize_rows()
/// inputs, dequant then bias, the scalar gate twins, and a quantize_rows()
/// re-encode of `h`. Returns the f32 next hidden rows.
tensor::Matrix reference_step(const nn::GruCell& cell,
                              tensor::QuantizedMatrix& h,
                              const tensor::Matrix& x) {
  const std::size_t H = cell.hidden_size();
  tensor::Matrix gx =
      tensor::qgemm(tensor::QuantizedMatrix::quantize_rows(x),
                    tensor::QuantizedMatrix::quantize(cell.wx().value()));
  gx.add_row_broadcast_inplace(cell.bx().value());
  tensor::Matrix gh = tensor::qgemm(
      h, tensor::QuantizedMatrix::quantize(cell.wh().value()));
  gh.add_row_broadcast_inplace(cell.bh().value());
  tensor::Matrix h_next(h.rows(), H);
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::size_t j = 0; j < H; ++j) {
      const float rj = tensor::sigmoid_f32(gx.at(r, j) + gh.at(r, j));
      const float zj = tensor::sigmoid_f32(gx.at(r, H + j) + gh.at(r, H + j));
      const float nj =
          tensor::tanh_f32(gx.at(r, 2 * H + j) + rj * gh.at(r, 2 * H + j));
      h_next.at(r, j) = (1.0f - zj) * nj + zj * h.dequant(r, j);
    }
  }
  h = tensor::QuantizedMatrix::quantize_rows(h_next);
  return h_next;
}

/// The unfused int8 head: each layer through QuantizedLinear::infer
/// (qgemm() then bias) on quantize_rows() / quantize_rows_affine() rows.
std::vector<double> reference_head(const train::RnnNetwork& net,
                                   const tensor::QuantizedMatrix& h,
                                   const tensor::Matrix& x) {
  const train::QuantizedNetworkWeights& qw = net.quantized_weights();
  const std::size_t B = h.rows(), H = net.config().hidden_size;
  tensor::Matrix factor;
  if (net.config().latent_cross) {
    factor = qw.latent->infer(tensor::QuantizedMatrix::quantize_rows(x));
  }
  tensor::Matrix crossed(B, H);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < H; ++j) {
      crossed.at(b, j) = net.config().latent_cross
                             ? h.dequant(b, j) * (1.0f + factor.at(b, j))
                             : h.dequant(b, j);
    }
  }
  tensor::Matrix hidden = qw.w1->infer(tensor::QuantizedMatrix::quantize_rows(
      tensor::Matrix::concat_cols(crossed, x)));
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    hidden[i] = hidden[i] > 0 ? hidden[i] : 0.0f;
  }
  const tensor::Matrix logit =
      qw.w2->infer(tensor::QuantizedMatrix::quantize_rows_affine(hidden));
  std::vector<double> out(B);
  for (std::size_t b = 0; b < B; ++b) out[b] = logit.at(b, 0);
  return out;
}

void expect_same_state(const tensor::QuantizedMatrix& got,
                       const tensor::QuantizedMatrix& want,
                       const std::string& where) {
  ASSERT_EQ(got.rows(), want.rows()) << where;
  ASSERT_EQ(got.cols(), want.cols()) << where;
  for (std::size_t b = 0; b < want.rows(); ++b) {
    EXPECT_EQ(bits_of(got.scale(b)), bits_of(want.scale(b)))
        << where << " row " << b;
  }
  EXPECT_TRUE(std::equal(got.data(), got.data() + got.size(), want.data()))
      << where;
}

// Hidden sizes: 16-column tails (8, 33), one exact block (16) and the
// serving size (128: 24 blocks of 3H); an input width of 37 leaves a
// partial final k-quad. Three steps chain each state, and a second layer
// reads the first one's f32 output out of the shared scratch, as
// RnnNetwork::infer_update_q8 does.
void check_fused_step(tensor::GemmKernel kernel) {
  constexpr std::size_t kInput = 37;
  for (const std::size_t H : {8u, 16u, 33u, 128u}) {
    for (const std::size_t B : {1u, 3u, 9u}) {
      const std::string where =
          "H=" + std::to_string(H) + " B=" + std::to_string(B);
      Rng rng(1000 + 10 * H + B);
      const auto cell1 = random_gru(kInput, H, rng);
      const auto cell2 = random_gru(H, H, rng);
      const nn::QuantizedGruCell q1(*cell1), q2(*cell2);
      tensor::QuantizedMatrix h1 = random_state(B, H, rng);
      tensor::QuantizedMatrix h2 = random_state(B, H, rng);
      tensor::QuantizedMatrix ref1 = h1, ref2 = h2;
      nn::QuantizedScratch scratch;
      for (int step = 0; step < 3; ++step) {
        const tensor::Matrix x = sparse_rows(B, kInput, rng);
        tensor::Matrix want1, want2;
        {
          tensor::GemmConfigScope scope(tensor::GemmKernel::kBlocked);
          want1 = reference_step(*cell1, ref1, x);
          want2 = reference_step(*cell2, ref2, want1);
        }
        tensor::GemmConfigScope scope(kernel);
        const float* out1 = q1.infer_step(h1, x.data(), scratch);
        EXPECT_TRUE(std::equal(out1, out1 + B * H, want1.data(),
                               [](float a, float b) {
                                 return bits_of(a) == bits_of(b);
                               }))
            << where << " layer 1 step " << step;
        const float* out2 = q2.infer_step(h2, out1, scratch);
        EXPECT_TRUE(std::equal(out2, out2 + B * H, want2.data(),
                               [](float a, float b) {
                                 return bits_of(a) == bits_of(b);
                               }))
            << where << " layer 2 step " << step;
        expect_same_state(h1, ref1, where + " layer 1");
        expect_same_state(h2, ref2, where + " layer 2");
      }
    }
  }
}

/// An RnnNetwork with random nonzero biases and its int8 replicas. The
/// predict input is 19 wide (not a multiple of 4) and the MLP H + 3.
std::unique_ptr<train::RnnNetwork> random_network(std::size_t H,
                                                  bool latent_cross,
                                                  Rng& rng) {
  train::RnnNetworkConfig config;
  config.feature_size = 14;
  config.time_buckets = 5;
  config.hidden_size = H;
  config.mlp_hidden = H + 3;
  config.latent_cross = latent_cross;
  auto net = std::make_unique<train::RnnNetwork>(config, rng);
  const std::vector<std::string> names = net->parameter_names();
  std::vector<autograd::Variable> params = net->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (names[i].ends_with(".bias")) {
      params[i].mutable_value() = tensor::Matrix::randn(
          1, params[i].value().cols(), rng, 0.0f, 0.3f);
    }
  }
  net->prepare_quantized();
  return net;
}

void check_fused_head(tensor::GemmKernel kernel) {
  for (const bool latent_cross : {true, false}) {
    for (const std::size_t H : {8u, 16u, 33u, 128u}) {
      for (const std::size_t B : {1u, 3u, 9u}) {
        Rng rng(2000 + 10 * H + B + (latent_cross ? 1 : 0));
        const auto net = random_network(H, latent_cross, rng);
        const tensor::QuantizedMatrix h = random_state(B, H, rng);
        const tensor::Matrix x =
            sparse_rows(B, net->config().predict_input_size(), rng);
        std::vector<double> want;
        {
          tensor::GemmConfigScope scope(tensor::GemmKernel::kBlocked);
          want = reference_head(*net, h, x);
        }
        tensor::GemmConfigScope scope(kernel);
        EXPECT_EQ(net->infer_logits_q8(h, x), want)
            << "H=" << H << " B=" << B << " latent_cross=" << latent_cross;
      }
    }
  }
}

class FusedInt8 : public ::testing::TestWithParam<tensor::GemmKernel> {
 protected:
  void SetUp() override {
    if (GetParam() == tensor::GemmKernel::kSimd &&
        !tensor::gemm_simd_available()) {
      GTEST_SKIP() << "no AVX2 kernels on this host";
    }
  }
};

TEST_P(FusedInt8, StepMatchesUnfusedReference) { check_fused_step(GetParam()); }

TEST_P(FusedInt8, HeadMatchesUnfusedReference) { check_fused_head(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Kernels, FusedInt8,
                         ::testing::Values(tensor::GemmKernel::kNaive,
                                           tensor::GemmKernel::kBlocked,
                                           tensor::GemmKernel::kSimd),
                         [](const auto& info) {
                           return std::string(
                               tensor::gemm_kernel_name(info.param));
                         });

TEST(FusedInt8Vnni, StepAndHeadMatchUnfusedReference) {
  // Where the probe passes, kSimd runs the VNNI products; this names that
  // lane so a host that cannot run it says so instead of passing on the
  // AVX2 lane.
  if (!tensor::avx512_vnni_available()) {
    GTEST_SKIP() << "host lacks AVX-512 F/BW/VNNI (or the qgemm_avx512 TU "
                    "was built without them): the VNNI lane cannot run here";
  }
  check_fused_step(tensor::GemmKernel::kSimd);
  check_fused_head(tensor::GemmKernel::kSimd);
}

// ---- the fused f32 head ----------------------------------------------------

/// The network's layer `name` ("latent", "w1", "w2") as a standalone
/// nn::Linear holding the same weight and bias.
std::unique_ptr<nn::Linear> layer_copy(const train::RnnNetwork& net,
                                       const std::string& name) {
  const std::vector<std::string> names = net.parameter_names();
  const std::vector<autograd::Variable> params = net.parameters();
  tensor::Matrix weight, bias;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!names[i].starts_with(name + ".")) continue;
    (names[i].ends_with(".weight") ? weight : bias) = params[i].value();
  }
  Rng rng(0);
  auto layer = std::make_unique<nn::Linear>(weight.rows(), weight.cols(), rng);
  autograd::Variable w = layer->weight();
  autograd::Variable b = layer->bias();
  w.mutable_value() = weight;
  b.mutable_value() = bias;
  return layer;
}

/// The unfused f32 head the fused RnnNetwork::infer_logits replaced:
/// Linear::infer per layer (the GEMM into a zeroed output, then the bias),
/// the latent cross h ∘ (1 + L(x)), a concat and the ReLU.
std::vector<double> reference_f32_head(const train::RnnNetwork& net,
                                       const tensor::Matrix& h,
                                       const tensor::Matrix& x) {
  tensor::Matrix crossed = h;
  if (net.config().latent_cross) {
    const tensor::Matrix factor = layer_copy(net, "latent")->infer(x);
    for (std::size_t i = 0; i < crossed.size(); ++i) {
      crossed[i] *= 1.0f + factor[i];
    }
  }
  tensor::Matrix hidden =
      layer_copy(net, "w1")->infer(tensor::Matrix::concat_cols(crossed, x));
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    hidden[i] = hidden[i] > 0 ? hidden[i] : 0.0f;
  }
  const tensor::Matrix logit = layer_copy(net, "w2")->infer(hidden);
  std::vector<double> out(logit.rows());
  for (std::size_t b = 0; b < logit.rows(); ++b) out[b] = logit.at(b, 0);
  return out;
}

/// [rows x hidden] f32 states holding +0 and -0 entries, the last row of
/// several all zero (a cold user).
tensor::Matrix f32_state_rows(std::size_t rows, std::size_t hidden,
                              Rng& rng) {
  tensor::Matrix h = tensor::Matrix::randn(rows, hidden, rng, 0.0f, 0.5f);
  for (std::size_t b = 0; b < rows; ++b) {
    for (std::size_t j = 0; j < hidden; ++j) {
      if (rows > 1 && b + 1 == rows) {
        h.at(b, j) = 0.0f;
      } else if (j % 5 == 1) {
        h.at(b, j) = 0.0f;
      } else if (j % 7 == 3) {
        h.at(b, j) = -0.0f;
      }
    }
  }
  return h;
}

/// Serving-shaped predict rows (14 context columns, 5 time buckets): a
/// one-hot context value, one time bucket and one stray value.
tensor::Matrix one_hot_rows(std::size_t rows, std::size_t cols, Rng& rng) {
  tensor::Matrix x(rows, cols);
  for (std::size_t b = 0; b < rows; ++b) {
    x.at(b, rng.uniform_index(14)) = 1.0f;
    x.at(b, 14 + rng.uniform_index(cols - 14)) = 1.0f;
    x.at(b, rng.uniform_index(cols)) = static_cast<float>(rng.normal());
  }
  return x;
}

// Hidden 1, 8, 33 and 128 against an MLP 3 wider (64-column passes,
// narrower ones and scalar column tails), batches of 1, 3 and 64, the
// latent cross on and off, one-hot and dense x. memcmp, not ==: -0 and +0
// must match too.
void check_fused_f32_head(tensor::GemmKernel kernel) {
  for (const bool latent_cross : {true, false}) {
    for (const std::size_t H : {1u, 8u, 33u, 128u}) {
      for (const std::size_t B : {1u, 3u, 64u}) {
        for (const bool one_hot : {true, false}) {
          Rng rng(4000 + 10 * H + B + (latent_cross ? 1 : 0) +
                  (one_hot ? 2 : 0));
          const auto net = random_network(H, latent_cross, rng);
          const std::size_t P = net->config().predict_input_size();
          const tensor::Matrix h = f32_state_rows(B, H, rng);
          const tensor::Matrix x =
              one_hot ? one_hot_rows(B, P, rng)
                      : tensor::Matrix::randn(B, P, rng, 0.0f, 1.0f);
          std::vector<double> want;
          {
            tensor::GemmConfigScope scope(tensor::GemmKernel::kNaive);
            want = reference_f32_head(*net, h, x);
          }
          tensor::GemmConfigScope scope(kernel);
          const std::vector<double> got = net->infer_logits(h, x);
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(std::memcmp(got.data(), want.data(), B * sizeof(double)),
                    0)
              << "H=" << H << " B=" << B << " latent_cross=" << latent_cross
              << " one_hot=" << one_hot;
        }
      }
    }
  }
}

class FusedF32Head : public ::testing::TestWithParam<tensor::GemmKernel> {
 protected:
  void SetUp() override {
    if (GetParam() == tensor::GemmKernel::kSimd &&
        !tensor::gemm_simd_available()) {
      GTEST_SKIP() << "no AVX2 kernels on this host";
    }
  }
};

// GemvNz.EveryLaneMatchesTheNnProduct (tensor_gemm_test) pins the gemv
// lanes themselves; this pins the head built on them.
TEST_P(FusedF32Head, MatchesUnfusedReference) {
  check_fused_f32_head(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, FusedF32Head,
                         ::testing::Values(tensor::GemmKernel::kNaive,
                                           tensor::GemmKernel::kBlocked,
                                           tensor::GemmKernel::kSimd),
                         [](const auto& info) {
                           return std::string(
                               tensor::gemm_kernel_name(info.param));
                         });

// ---- the f32 cell steps -----------------------------------------------------

/// a · b through the naive kernel into a zeroed output, as Matrix::matmul
/// forms it (the kernels agree bit for bit).
tensor::Matrix naive_product(const tensor::Matrix& a, const tensor::Matrix& b) {
  tensor::Matrix c(a.rows(), b.cols());
  tensor::gemm_nn_naive(a, b, c);
  return c;
}

/// One f32 cell step written out per element: naive products, the biases,
/// then the scalar gate twins of tensor/vmath.hpp in the cell's op order.
/// `p` is the cell's parameters() (wx, wh, then its biases); `state` is
/// {h} or, for the LSTM, {h, c}.
void reference_cell_step(nn::CellType type,
                         const std::vector<autograd::Variable>& p,
                         std::vector<tensor::Matrix>& state,
                         const tensor::Matrix& x) {
  const tensor::Matrix ax = naive_product(x, p[0].value());
  const tensor::Matrix ah = naive_product(state[0], p[1].value());
  const tensor::Matrix& bias = p[2].value();
  const std::size_t B = state[0].rows(), H = state[0].cols();
  tensor::Matrix h_next(B, H);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t j = 0; j < H; ++j) {
      const float h = state[0].at(b, j);
      switch (type) {
        case nn::CellType::kTanh:
          h_next.at(b, j) =
              tensor::tanh_f32((ax.at(b, j) + ah.at(b, j)) + bias[j]);
          break;
        case nn::CellType::kGru: {
          const tensor::Matrix& bh = p[3].value();
          const auto gx = [&](std::size_t c) { return ax.at(b, c) + bias[c]; };
          const auto gh = [&](std::size_t c) { return ah.at(b, c) + bh[c]; };
          const float r = tensor::sigmoid_f32(gx(j) + gh(j));
          const float z = tensor::sigmoid_f32(gx(H + j) + gh(H + j));
          const float n = tensor::tanh_f32(gx(2 * H + j) + r * gh(2 * H + j));
          h_next.at(b, j) = (1.0f - z) * n + z * h;
          break;
        }
        case nn::CellType::kLstm: {
          const auto gate = [&](std::size_t c) {
            return (ax.at(b, c) + ah.at(b, c)) + bias[c];
          };
          const float i = tensor::sigmoid_f32(gate(j));
          const float f = tensor::sigmoid_f32(gate(H + j));
          const float g = tensor::tanh_f32(gate(2 * H + j));
          const float o = tensor::sigmoid_f32(gate(3 * H + j));
          float& c = state[1].at(b, j);
          c = f * c + i * g;
          h_next.at(b, j) = o * tensor::tanh_f32(c);
          break;
        }
      }
    }
  }
  state[0] = std::move(h_next);
}

/// Each cell at hidden 1 (scalar tails only), 8, 33 and 128 (the serving
/// size), 1 and 3 rows, one-hot and dense inputs 37 wide, from random
/// nonzero states and biases; three chained steps. memcmp, not ==: -0 and
/// +0 must match too.
void check_f32_cell_step(tensor::GemmKernel kernel) {
  constexpr std::size_t kInput = 37;
  for (const nn::CellType type :
       {nn::CellType::kGru, nn::CellType::kLstm, nn::CellType::kTanh}) {
    for (const std::size_t H : {1u, 8u, 33u, 128u}) {
      for (const std::size_t B : {1u, 3u}) {
        for (const bool one_hot : {true, false}) {
          const std::string where = std::string(nn::to_string(type)) +
                                    " H=" + std::to_string(H) +
                                    " B=" + std::to_string(B) +
                                    " one_hot=" + std::to_string(one_hot);
          Rng rng(5000 + 10 * H + B + (one_hot ? 1 : 0) +
                  100000 * static_cast<int>(type));
          const auto cell = nn::make_cell(type, kInput, H, rng);
          std::vector<autograd::Variable> params = cell->parameters();
          for (std::size_t i = 2; i < params.size(); ++i) {
            params[i].mutable_value() = tensor::Matrix::randn(
                1, params[i].value().cols(), rng, 0.0f, 0.5f);
          }
          std::vector<tensor::Matrix> state = cell->infer_initial_state(B);
          for (tensor::Matrix& part : state) {
            part = tensor::Matrix::randn(B, H, rng, 0.0f, 0.5f);
          }
          std::vector<tensor::Matrix> want = state;
          for (int step = 0; step < 3; ++step) {
            const tensor::Matrix x =
                one_hot ? one_hot_rows(B, kInput, rng)
                        : tensor::Matrix::randn(B, kInput, rng, 0.0f, 1.0f);
            reference_cell_step(type, params, want, x);
            {
              tensor::GemmConfigScope scope(kernel);
              cell->infer_step(state, x);
            }
            ASSERT_EQ(state.size(), want.size()) << where;
            for (std::size_t part = 0; part < want.size(); ++part) {
              ASSERT_EQ(state[part].rows(), B) << where;
              ASSERT_EQ(state[part].cols(), H) << where;
              EXPECT_EQ(std::memcmp(state[part].data(), want[part].data(),
                                    B * H * sizeof(float)),
                        0)
                  << where << " step " << step << " part " << part;
            }
          }
        }
      }
    }
  }
}

class F32CellStep : public ::testing::TestWithParam<tensor::GemmKernel> {
 protected:
  void SetUp() override {
    if (GetParam() == tensor::GemmKernel::kSimd &&
        !tensor::gemm_simd_available()) {
      GTEST_SKIP() << "no AVX2 kernels on this host";
    }
  }
};

// Serving, the offline replay and the learner's gate all run these steps;
// GateMath.VectorLaneMatchesScalarTwinWithinUlpBound pins the lanes.
TEST_P(F32CellStep, MatchesScalarReference) {
  check_f32_cell_step(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, F32CellStep,
                         ::testing::Values(tensor::GemmKernel::kNaive,
                                           tensor::GemmKernel::kBlocked,
                                           tensor::GemmKernel::kSimd),
                         [](const auto& info) {
                           return std::string(
                               tensor::gemm_kernel_name(info.param));
                         });

TEST(QuantizedWeights, MultiplyMatchesNaiveProductOnEveryKernel) {
  // k covers partial final quads; n covers VNNI chunks of 1..8 column
  // blocks plus column tails; A spans the full int8 range (-128 included)
  // with whole zero quads, the case the sparse skips take.
  for (const std::size_t k : {1u, 3u, 4u, 5u, 37u, 130u}) {
    for (const std::size_t n : {1u, 15u, 16u, 17u, 130u, 384u}) {
      for (const std::size_t m : {1u, 3u, 9u}) {
        Rng rng(3000 + k * 1000 + n * 10 + m);
        const tensor::QuantizedWeights w(
            tensor::Matrix::randn(k, n, rng, 0.0f, 1.0f));
        std::vector<std::int8_t> a(m * k, 0);
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (rng.uniform() < 0.5) continue;
          a[i] = static_cast<std::int8_t>(
              static_cast<int>(rng.uniform() * 256.0) - 128);
        }
        a[0] = -128;
        std::vector<std::int32_t> want(m * n, 0);
        tensor::qgemm_nn_i32_naive(a.data(), w.matrix().data(), want.data(),
                                   m, k, n);
        for (const tensor::GemmKernel kernel :
             {tensor::GemmKernel::kNaive, tensor::GemmKernel::kBlocked,
              tensor::GemmKernel::kSimd}) {
          tensor::GemmConfigScope scope(kernel);
          std::vector<std::int32_t> got(m * n, 0x5a5a5a5a);
          w.multiply(a.data(), m, got.data());
          EXPECT_EQ(got, want) << tensor::gemm_kernel_name(kernel) << " k=" << k
                               << " n=" << n << " m=" << m;
        }
        // On a VNNI host kSimd above ran vpdpbusd; the AVX2 kernel that
        // kSimd runs elsewhere gets the same shapes here.
        std::vector<std::int32_t> avx2(m * n, 0);
        tensor::qgemm_nn_i32_simd(a.data(), w.matrix().data(), avx2.data(), m,
                                  k, n);
        EXPECT_EQ(avx2, want) << "avx2 k=" << k << " n=" << n << " m=" << m;
      }
    }
  }
}

}  // namespace
}  // namespace pp::serving
