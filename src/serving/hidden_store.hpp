// Per-user hidden-state persistence (§9): "the most recent hidden state
// for each user (a 128-element floating point vector) and session
// timestamp are stored in a real-time data store similar to Redis."
//
// Supports two codecs: float32 (512 bytes at d=128, the paper's default)
// and int8 per-tensor affine quantization ("neural network quantization
// methods can also be applied to store single bytes instead of
// floating-point numbers for each dimension", §9).
#pragma once

#include <optional>

#include "serving/kv_store.hpp"
#include "train/rnn_network.hpp"

namespace pp::serving {

enum class StateCodec { kFloat32, kInt8 };

/// A user's stored state in a scorer's representation (train/scorer.hpp).
template <class State>
struct BasicStoredState {
  State state;
  /// Timestamp t_k of the last session folded into the state (needed for
  /// the T(t - t_k) prediction input).
  std::int64_t last_update_time = 0;
  /// Number of sessions folded in (k); 0 = cold start.
  std::uint32_t updates = 0;
};

/// A stored record's bookkeeping without its state: what the
/// exposed-hidden read (HiddenStateStore::get_hidden) returns.
struct StateStamp {
  std::int64_t last_update_time = 0;
  std::uint32_t updates = 0;
};

using StoredState = BasicStoredState<train::InferenceState>;
/// The int8 twin of StoredState for the quantized serving mode: the state
/// matrices stay in their stored byte form (scale + int8 vector). The wire
/// format is identical to the kInt8 codec, so put/put_q8 and get/get_q8
/// are freely interchangeable on one store.
using QuantizedStoredState = BasicStoredState<train::QuantizedInferenceState>;

class HiddenStateStore {
 public:
  HiddenStateStore(KvStore& store, StateCodec codec = StateCodec::kFloat32)
      : store_(&store), codec_(codec) {}

  /// Writes an f32 state through the codec, an int8 one as put_q8 does.
  template <class State>
  void put(std::uint64_t user_id, const BasicStoredState<State>& state);
  /// Returns the stored state, or std::nullopt for a cold user. `network`
  /// supplies the expected state geometry: layer count, each layer's part
  /// count (LSTM 2, GRU/tanh 1) and hidden size. State =
  /// train::QuantizedInferenceState is get_q8.
  template <class State = train::InferenceState>
  std::optional<BasicStoredState<State>> get(
      std::uint64_t user_id, const train::RnnNetwork& network) const;

  /// Raw int8 read for the quantized serving path: the stored bytes and
  /// scale are handed over as-is — no f32 decode happens. Requires the
  /// kInt8 codec and a single-part (GRU) state record whose geometry
  /// matches `network` (callers memcpy hidden_size bytes straight out of
  /// the returned state, so a stale record from a differently-sized model
  /// must fail loudly here); throws std::logic_error / std::runtime_error
  /// otherwise.
  std::optional<QuantizedStoredState> get_q8(
      std::uint64_t user_id, const train::RnnNetwork& network) const {
    return get<train::QuantizedInferenceState>(user_id, network);
  }
  /// Reads only the exposed hidden vector (the top layer's h, the one
  /// RNNpredict consumes) straight into `out` [hidden_size]: f32 values as
  /// get() would return them (decoded from int8 under the kInt8 codec),
  /// with no state built. The record walk and its checks are get()'s —
  /// layer count, part count, every part's geometry and int8 scale, and
  /// truncation — so it throws exactly where get() throws. Returns the
  /// record's stamp, or std::nullopt for a cold user (out untouched).
  std::optional<StateStamp> get_hidden(std::uint64_t user_id,
                                       const train::RnnNetwork& network,
                                       float* out) const;
  /// The int8 twin, under get_q8's preconditions: the stored bytes into
  /// `out` [hidden_size] and their scale into `*scale`, as-is.
  std::optional<StateStamp> get_hidden(std::uint64_t user_id,
                                       const train::RnnNetwork& network,
                                       std::int8_t* out, float* scale) const;

  /// Writes an already-quantized state without an f32 encode pass (the
  /// GRU step re-quantized the updated hidden; its bytes go straight to
  /// the wire). Same format as put() under kInt8.
  void put_q8(std::uint64_t user_id, const QuantizedStoredState& state) {
    put(user_id, state);
  }

  /// Serialized size of one state (the per-user storage footprint).
  std::size_t encoded_bytes(const train::RnnNetwork& network) const;

  StateCodec codec() const { return codec_; }
  KvStore& store() { return *store_; }

 private:
  std::string key(std::uint64_t user_id) const;

  KvStore* store_;
  StateCodec codec_;
};

}  // namespace pp::serving
