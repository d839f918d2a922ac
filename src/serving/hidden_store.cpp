#include "serving/hidden_store.hpp"

#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "tensor/qgemm.hpp"
#include "util/serialize.hpp"

namespace pp::serving {

namespace {

template <class State>
constexpr bool kInt8View =
    std::is_same_v<State, train::QuantizedInferenceState>;

/// State matrices per layer of the model's cell: LSTM (h, c), GRU/tanh h.
std::uint32_t cell_parts(const train::RnnNetworkConfig& cfg) {
  return cfg.cell == nn::CellType::kLstm ? 2 : 1;
}

void encode_q8(const tensor::QuantizedMatrix& q, BinaryWriter& writer) {
  writer.write_u32(static_cast<std::uint32_t>(q.rows()));
  writer.write_u32(static_cast<std::uint32_t>(q.cols()));
  writer.write_f32(q.scale());
  writer.write_bytes(q.data(), q.size());
}

void encode_matrix(const tensor::Matrix& m, StateCodec codec,
                   BinaryWriter& writer) {
  if (codec == StateCodec::kInt8) {
    // int8 per-tensor affine: v ≈ scale * q with q in [-127, 127]. The
    // sanitization rules (scale from finite entries only, NaN -> 0, ±Inf
    // saturates, denormal-scale clamp) live in QuantizedMatrix::quantize —
    // the single source of truth shared with the quantized scoring path.
    encode_q8(tensor::QuantizedMatrix::quantize(m), writer);
    return;
  }
  writer.write_u32(static_cast<std::uint32_t>(m.rows()));
  writer.write_u32(static_cast<std::uint32_t>(m.cols()));
  writer.write_bytes(m.data(), m.size() * sizeof(float));
}

void encode_layer(const std::vector<tensor::Matrix>& layer, StateCodec codec,
                  BinaryWriter& writer) {
  writer.write_u32(static_cast<std::uint32_t>(layer.size()));
  for (const auto& part : layer) encode_matrix(part, codec, writer);
}

void encode_layer(const tensor::QuantizedMatrix& layer, StateCodec,
                  BinaryWriter& writer) {
  if (!layer.per_tensor()) {
    throw std::invalid_argument(
        "put_q8: per-user states carry one scale (got a per-row batch)");
  }
  writer.write_u32(1);  // parts: GRU h only
  encode_q8(layer, writer);
}

/// Reads a part's shape. Callers memcpy hidden_size values straight out of
/// a returned state, so a record written by a differently-sized model must
/// fail loudly here, before its payload is read.
void read_shape(BinaryReader& reader, std::size_t hidden_size) {
  const std::uint32_t rows = reader.read_u32();
  const std::uint32_t cols = reader.read_u32();
  if (rows != 1 || cols != hidden_size) {
    throw std::runtime_error("get: stored state geometry " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols) +
                             " mismatches model hidden size " +
                             std::to_string(hidden_size));
  }
}

tensor::QuantizedMatrix decode_q8(BinaryReader& reader,
                                  std::size_t hidden_size) {
  read_shape(reader, hidden_size);
  const float scale = reader.read_f32();
  // The codec never writes one (symmetric_scale clamps to >= FLT_MIN), and
  // a NaN, infinite, zero or negative scale would flow straight into the
  // gate inputs of the int8 step and head.
  if (!(std::isfinite(scale) && scale > 0.0f)) {
    throw std::runtime_error("get: stored int8 scale " +
                             std::to_string(scale) +
                             " is not finite and positive");
  }
  std::vector<std::int8_t> data(hidden_size);
  reader.read_bytes(data.data(), data.size());
  return tensor::QuantizedMatrix::from_raw(1, hidden_size, scale,
                                           std::move(data));
}

tensor::Matrix decode_matrix(StateCodec codec, BinaryReader& reader,
                             std::size_t hidden_size) {
  if (codec == StateCodec::kInt8) {
    return decode_q8(reader, hidden_size).dequantize();
  }
  read_shape(reader, hidden_size);
  tensor::Matrix m(1, hidden_size);
  reader.read_bytes(m.data(), m.size() * sizeof(float));
  return m;
}

}  // namespace

std::string HiddenStateStore::key(std::uint64_t user_id) const {
  return "h:" + std::to_string(user_id);
}

template <class State>
void HiddenStateStore::put(std::uint64_t user_id,
                           const BasicStoredState<State>& state) {
  if (kInt8View<State> && codec_ != StateCodec::kInt8) {
    throw std::logic_error("put_q8: store must use the kInt8 codec");
  }
  BinaryWriter writer;
  writer.write_i64(state.last_update_time);
  writer.write_u32(state.updates);
  writer.write_u32(static_cast<std::uint32_t>(state.state.layers.size()));
  for (const auto& layer : state.state.layers) {
    encode_layer(layer, codec_, writer);
  }
  store_->put(key(user_id), writer.take());
}

template <class State>
std::optional<BasicStoredState<State>> HiddenStateStore::get(
    std::uint64_t user_id, const train::RnnNetwork& network) const {
  const auto& cfg = network.config();
  if (kInt8View<State> &&
      (codec_ != StateCodec::kInt8 || cell_parts(cfg) != 1)) {
    throw std::logic_error(
        "get_q8: needs the kInt8 codec and a single-part (GRU) cell");
  }
  auto bytes = store_->get(key(user_id));
  if (!bytes.has_value()) return std::nullopt;
  BinaryReader reader(std::move(*bytes));
  BasicStoredState<State> state;
  state.last_update_time = reader.read_i64();
  state.updates = reader.read_u32();
  const std::uint32_t layers = reader.read_u32();
  if (layers != static_cast<std::uint32_t>(cfg.num_layers)) {
    throw std::runtime_error("get: stored layer count mismatches model");
  }
  state.state.layers.reserve(layers);
  for (std::uint32_t l = 0; l < layers; ++l) {
    const std::uint32_t parts = reader.read_u32();
    if (parts != cell_parts(cfg)) {
      throw std::runtime_error("get: stored part count mismatches model cell");
    }
    if constexpr (kInt8View<State>) {
      state.state.layers.push_back(decode_q8(reader, cfg.hidden_size));
    } else {
      auto& layer = state.state.layers.emplace_back();
      layer.reserve(parts);
      for (std::uint32_t p = 0; p < parts; ++p) {
        layer.push_back(decode_matrix(codec_, reader, cfg.hidden_size));
      }
    }
  }
  return state;
}

template void HiddenStateStore::put(std::uint64_t, const StoredState&);
template void HiddenStateStore::put(std::uint64_t,
                                    const QuantizedStoredState&);
template std::optional<StoredState> HiddenStateStore::get(
    std::uint64_t, const train::RnnNetwork&) const;
template std::optional<QuantizedStoredState> HiddenStateStore::get<
    train::QuantizedInferenceState>(std::uint64_t,
                                    const train::RnnNetwork&) const;

std::size_t HiddenStateStore::encoded_bytes(
    const train::RnnNetwork& network) const {
  const auto& cfg = network.config();
  const std::size_t parts = cell_parts(cfg);
  const std::size_t per_value = codec_ == StateCodec::kFloat32 ? 4 : 1;
  const std::size_t header = 8 + 4 + 4;
  const std::size_t per_matrix =
      8 + (codec_ == StateCodec::kInt8 ? 4 : 0) + cfg.hidden_size * per_value;
  return header +
         static_cast<std::size_t>(cfg.num_layers) * (4 + parts * per_matrix);
}

}  // namespace pp::serving
