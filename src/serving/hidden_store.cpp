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

/// Bytes encode_layer writes: the part count, then per part its shape,
/// the int8 scale and the values.
std::size_t layer_bytes(const std::vector<tensor::Matrix>& layer,
                        StateCodec codec) {
  std::size_t bytes = 4;
  for (const auto& part : layer) {
    bytes += codec == StateCodec::kInt8 ? 8 + 4 + part.size()
                                        : 8 + part.size() * sizeof(float);
  }
  return bytes;
}

std::size_t layer_bytes(const tensor::QuantizedMatrix& layer, StateCodec) {
  return 4 + 8 + 4 + layer.size();
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

/// Reads a part's int8 scale. The codec never writes an invalid one
/// (symmetric_scale clamps to >= FLT_MIN), and a NaN, infinite, zero or
/// negative scale would flow straight into the gate inputs of the int8
/// step and head.
float read_scale(BinaryReader& reader) {
  const float scale = reader.read_f32();
  if (!(std::isfinite(scale) && scale > 0.0f)) {
    throw std::runtime_error("get: stored int8 scale " +
                             std::to_string(scale) +
                             " is not finite and positive");
  }
  return scale;
}

tensor::QuantizedMatrix decode_q8(BinaryReader& reader,
                                  std::size_t hidden_size, float scale) {
  std::vector<std::int8_t> data(hidden_size);
  reader.read_bytes(data.data(), data.size());
  return tensor::QuantizedMatrix::from_raw(1, hidden_size, scale,
                                           std::move(data));
}

/// Decodes a part's payload into `out` [hidden_size] as f32: the stored
/// floats, or under kInt8 QuantizedMatrix::dequant of the symmetric
/// stored bytes, scale * float(q).
void decode_part(StateCodec codec, BinaryReader& reader,
                 std::size_t hidden_size, float scale, float* out) {
  if (codec == StateCodec::kInt8) {
    const auto* q = reinterpret_cast<const std::int8_t*>(
        reader.view(hidden_size));
    for (std::size_t j = 0; j < hidden_size; ++j) {
      out[j] = scale * static_cast<float>(q[j]);
    }
    return;
  }
  reader.read_bytes(out, hidden_size * sizeof(float));
}

/// Bytes of one part's payload.
std::size_t payload_bytes(StateCodec codec, std::size_t hidden_size) {
  return hidden_size * (codec == StateCodec::kInt8 ? 1 : sizeof(float));
}

/// The one walk over a stored record, shared by get() and get_hidden():
/// the stamp, the layer count, then per layer its part count and per part
/// its geometry and (kInt8) its scale, each checked against the model,
/// before `on_part(layer, part, scale)` consumes the part's payload. A
/// truncated record throws from the reader.
template <class OnPart>
StateStamp walk_record(BinaryReader& reader,
                       const train::RnnNetworkConfig& cfg, StateCodec codec,
                       OnPart&& on_part) {
  StateStamp stamp;
  stamp.last_update_time = reader.read_i64();
  stamp.updates = reader.read_u32();
  const std::uint32_t layers = reader.read_u32();
  if (layers != static_cast<std::uint32_t>(cfg.num_layers)) {
    throw std::runtime_error("get: stored layer count mismatches model");
  }
  for (std::uint32_t l = 0; l < layers; ++l) {
    const std::uint32_t parts = reader.read_u32();
    if (parts != cell_parts(cfg)) {
      throw std::runtime_error("get: stored part count mismatches model cell");
    }
    for (std::uint32_t p = 0; p < parts; ++p) {
      read_shape(reader, cfg.hidden_size);
      on_part(l, p,
              codec == StateCodec::kInt8 ? read_scale(reader) : 1.0f);
    }
  }
  return stamp;
}

/// Whether (layer, part) is the exposed hidden: the top layer's h.
bool exposed_part(const train::RnnNetworkConfig& cfg, std::uint32_t layer,
                  std::uint32_t part) {
  return layer + 1 == static_cast<std::uint32_t>(cfg.num_layers) &&
         part == 0;
}

void require_q8_view(StateCodec codec, const train::RnnNetworkConfig& cfg) {
  if (codec != StateCodec::kInt8 || cell_parts(cfg) != 1) {
    throw std::logic_error(
        "get_q8: needs the kInt8 codec and a single-part (GRU) cell");
  }
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
  // One allocation per record: the writer would otherwise grow 8 -> 16 ->
  // 32 -> record size.
  std::size_t bytes = 8 + 4 + 4;
  for (const auto& layer : state.state.layers) {
    bytes += layer_bytes(layer, codec_);
  }
  BinaryWriter writer;
  writer.reserve(bytes);
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
  if constexpr (kInt8View<State>) require_q8_view(codec_, cfg);
  auto bytes = store_->get(key(user_id));
  if (!bytes.has_value()) return std::nullopt;
  BinaryReader reader(std::move(*bytes));
  BasicStoredState<State> state;
  auto& layers = state.state.layers;
  layers.reserve(static_cast<std::size_t>(cfg.num_layers));
  const StateStamp stamp = walk_record(
      reader, cfg, codec_,
      [&](std::uint32_t, std::uint32_t part, float scale) {
        if constexpr (kInt8View<State>) {
          layers.push_back(decode_q8(reader, cfg.hidden_size, scale));
        } else {
          if (part == 0) layers.emplace_back().reserve(cell_parts(cfg));
          tensor::Matrix& m = layers.back().emplace_back(1, cfg.hidden_size);
          decode_part(codec_, reader, cfg.hidden_size, scale, m.data());
        }
      });
  state.last_update_time = stamp.last_update_time;
  state.updates = stamp.updates;
  return state;
}

std::optional<StateStamp> HiddenStateStore::get_hidden(
    std::uint64_t user_id, const train::RnnNetwork& network,
    float* out) const {
  const auto& cfg = network.config();
  auto bytes = store_->get(key(user_id));
  if (!bytes.has_value()) return std::nullopt;
  BinaryReader reader(std::move(*bytes));
  return walk_record(
      reader, cfg, codec_,
      [&](std::uint32_t layer, std::uint32_t part, float scale) {
        if (exposed_part(cfg, layer, part)) {
          decode_part(codec_, reader, cfg.hidden_size, scale, out);
        } else {
          reader.skip(payload_bytes(codec_, cfg.hidden_size));
        }
      });
}

std::optional<StateStamp> HiddenStateStore::get_hidden(
    std::uint64_t user_id, const train::RnnNetwork& network, std::int8_t* out,
    float* scale) const {
  const auto& cfg = network.config();
  require_q8_view(codec_, cfg);
  auto bytes = store_->get(key(user_id));
  if (!bytes.has_value()) return std::nullopt;
  BinaryReader reader(std::move(*bytes));
  return walk_record(
      reader, cfg, codec_,
      [&](std::uint32_t layer, std::uint32_t part, float part_scale) {
        if (exposed_part(cfg, layer, part)) {
          reader.read_bytes(out, cfg.hidden_size);
          *scale = part_scale;
        } else {
          reader.skip(cfg.hidden_size);
        }
      });
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
