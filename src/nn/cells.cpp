#include "nn/cells.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/vmath.hpp"

namespace pp::nn {

using namespace autograd;

const char* to_string(CellType type) {
  switch (type) {
    case CellType::kTanh:
      return "tanh";
    case CellType::kGru:
      return "gru";
    case CellType::kLstm:
      return "lstm";
  }
  return "?";
}

CellState RecurrentCell::initial_state(std::size_t batch) const {
  CellState state;
  for (std::size_t i = 0; i < state_parts(); ++i) {
    state.emplace_back(Matrix::zeros(batch, hidden_size_));
  }
  return state;
}

std::vector<Matrix> RecurrentCell::infer_initial_state(
    std::size_t batch) const {
  return std::vector<Matrix>(state_parts(),
                             Matrix::zeros(batch, hidden_size_));
}

std::unique_ptr<RecurrentCell> make_cell(CellType type, std::size_t input_size,
                                         std::size_t hidden_size, Rng& rng) {
  switch (type) {
    case CellType::kTanh:
      return std::make_unique<TanhCell>(input_size, hidden_size, rng);
    case CellType::kGru:
      return std::make_unique<GruCell>(input_size, hidden_size, rng);
    case CellType::kLstm:
      return std::make_unique<LstmCell>(input_size, hidden_size, rng);
  }
  throw std::invalid_argument("make_cell: bad cell type");
}

Matrix orthogonal_init(std::size_t rows, std::size_t cols, Rng& rng) {
  // Gram-Schmidt on Gaussian columns of the taller orientation, then
  // transpose back if needed. Produces exactly orthonormal columns.
  const bool transpose = rows < cols;
  const std::size_t r = transpose ? cols : rows;
  const std::size_t c = transpose ? rows : cols;
  Matrix m = Matrix::randn(r, c, rng);
  for (std::size_t j = 0; j < c; ++j) {
    // Orthogonalize column j against previous columns (twice for numerical
    // stability: "twice is enough" per Kahan).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < j; ++k) {
        double dot = 0;
        for (std::size_t i = 0; i < r; ++i) dot += m.at(i, j) * m.at(i, k);
        for (std::size_t i = 0; i < r; ++i) {
          m.at(i, j) -= static_cast<float>(dot) * m.at(i, k);
        }
      }
    }
    double norm = 0;
    for (std::size_t i = 0; i < r; ++i) {
      norm += static_cast<double>(m.at(i, j)) * m.at(i, j);
    }
    norm = std::sqrt(std::max(norm, 1e-12));
    for (std::size_t i = 0; i < r; ++i) {
      m.at(i, j) = static_cast<float>(m.at(i, j) / norm);
    }
  }
  return transpose ? m.transposed() : m;
}

namespace {
/// Packs per-gate orthogonal blocks side by side: [hidden x gates*hidden].
Matrix packed_orthogonal(std::size_t hidden, std::size_t gates, Rng& rng) {
  Matrix out(hidden, gates * hidden);
  for (std::size_t g = 0; g < gates; ++g) {
    Matrix block = orthogonal_init(hidden, hidden, rng);
    for (std::size_t i = 0; i < hidden; ++i) {
      for (std::size_t j = 0; j < hidden; ++j) {
        out.at(i, g * hidden + j) = block.at(i, j);
      }
    }
  }
  return out;
}
}  // namespace

// ---------------------------------------------------------------- TanhCell

TanhCell::TanhCell(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : RecurrentCell(input_size, hidden_size) {
  wx_ = register_parameter("tanh.wx",
                           Matrix::xavier(input_size, hidden_size, rng));
  wh_ = register_parameter("tanh.wh",
                           orthogonal_init(hidden_size, hidden_size, rng));
  b_ = register_parameter("tanh.b", Matrix::zeros(1, hidden_size));
}

CellState TanhCell::step(const CellState& state, const Variable& x) const {
  const Variable& h = state.front();
  Variable pre = add_broadcast(
      add(matmul(x, wx_), matmul(h, wh_)), b_);
  return {tanh_op(pre)};
}

void TanhCell::infer_step(std::vector<Matrix>& state, const Matrix& x) const {
  Matrix pre = x.matmul(wx_.value());
  pre.add_inplace(state[0].matmul(wh_.value()));
  pre.add_row_broadcast_inplace(b_.value());
  tensor::tanh_f32(pre.data(), pre.data(), pre.size());
  state[0] = std::move(pre);
}

// ----------------------------------------------------------------- GruCell

GruCell::GruCell(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : RecurrentCell(input_size, hidden_size) {
  wx_ = register_parameter("gru.wx",
                           Matrix::xavier(input_size, 3 * hidden_size, rng));
  wh_ = register_parameter("gru.wh", packed_orthogonal(hidden_size, 3, rng));
  bx_ = register_parameter("gru.bx", Matrix::zeros(1, 3 * hidden_size));
  bh_ = register_parameter("gru.bh", Matrix::zeros(1, 3 * hidden_size));
}

CellState GruCell::step(const CellState& state, const Variable& x) const {
  const Variable& h = state.front();
  const std::size_t H = hidden_size_;
  Variable gx = add_broadcast(matmul(x, wx_), bx_);  // [B x 3H]
  Variable gh = add_broadcast(matmul(h, wh_), bh_);  // [B x 3H]

  Variable r = sigmoid(add(slice_cols(gx, 0, H), slice_cols(gh, 0, H)));
  Variable z = sigmoid(add(slice_cols(gx, H, H), slice_cols(gh, H, H)));
  Variable n = tanh_op(
      add(slice_cols(gx, 2 * H, H), mul(r, slice_cols(gh, 2 * H, H))));

  // h' = (1 - z) * n + z * h
  Variable h_next = add(mul(one_minus(z), n), mul(z, h));
  return {h_next};
}

void GruCell::infer_step(std::vector<Matrix>& state, const Matrix& x) const {
  const std::size_t H = hidden_size_;
  Matrix gx = x.matmul(wx_.value());
  gx.add_row_broadcast_inplace(bx_.value());
  Matrix gh = state[0].matmul(wh_.value());
  gh.add_row_broadcast_inplace(bh_.value());
  Matrix& h = state[0];
  Matrix h_next(h.rows(), H);
  // The gates are computed in gx's own row, [r | z | n], in the int8
  // cell's op order and with its tensor/vmath.hpp lanes.
  for (std::size_t b = 0; b < h.rows(); ++b) {
    float* g = gx.row(b).data();
    const float* ghb = gh.row(b).data();
    for (std::size_t j = 0; j < 2 * H; ++j) g[j] = g[j] + ghb[j];
    tensor::sigmoid_f32(g, g, 2 * H);
    float* n = g + 2 * H;
    for (std::size_t j = 0; j < H; ++j) n[j] = n[j] + g[j] * ghb[2 * H + j];
    tensor::tanh_f32(n, n, H);
    const float* hb = h.row(b).data();
    float* out = h_next.row(b).data();
    for (std::size_t j = 0; j < H; ++j) {
      const float z = g[H + j];
      out[j] = (1.0f - z) * n[j] + z * hb[j];
    }
  }
  state[0] = std::move(h_next);
}

// ------------------------------------------------------- QuantizedGruCell

QuantizedGruCell::QuantizedGruCell(const GruCell& cell)
    : wx_(cell.wx().value()),
      wh_(cell.wh().value()),
      bx_(cell.bx().value()),
      bh_(cell.bh().value()) {}

const float* QuantizedGruCell::infer_step(tensor::QuantizedMatrix& h,
                                          const float* x,
                                          QuantizedScratch& s) const {
  const std::size_t B = h.rows();
  const std::size_t H = hidden_size();
  const std::size_t K = input_size();
  if (h.cols() != H || !h.symmetric()) {
    throw std::invalid_argument(
        "QuantizedGruCell::infer_step: h must be a symmetric [B x hidden] "
        "int8 state");
  }
  // Quantize the input first: a stacked layer's x is s.out itself.
  std::int8_t* qx = s.sized(s.q, B * K);
  float* sx = s.sized(s.row_scale, B);
  for (std::size_t b = 0; b < B; ++b) {
    sx[b] = tensor::quantize_row(x + b * K, qx + b * K, K);
  }
  std::int32_t* ax = s.sized(s.acc_x, B * 3 * H);
  std::int32_t* ah = s.sized(s.acc_h, B * 3 * H);
  wx_.multiply(qx, B, ax);
  wh_.multiply(h.data(), B, ah);

  float* g = s.sized(s.act, 3 * H);  // [r | z | n] of one row
  float* out = s.sized(s.out, B * H);
  const float* bx = bx_.data();
  const float* bh = bh_.data();
  for (std::size_t b = 0; b < B; ++b) {
    const float sh = h.scale(b);
    const float sxw = sx[b] * wx_.scale();
    const float shw = sh * wh_.scale();
    const std::int32_t* axb = ax + b * 3 * H;
    const std::int32_t* ahb = ah + b * 3 * H;
    for (std::size_t j = 0; j < 2 * H; ++j) {
      g[j] = (sxw * static_cast<float>(axb[j]) + bx[j]) +
             (shw * static_cast<float>(ahb[j]) + bh[j]);
    }
    tensor::sigmoid_f32(g, g, 2 * H);
    float* n = g + 2 * H;
    for (std::size_t j = 0; j < H; ++j) {
      const std::size_t c = 2 * H + j;
      n[j] = (sxw * static_cast<float>(axb[c]) + bx[c]) +
             g[j] * (shw * static_cast<float>(ahb[c]) + bh[c]);
    }
    tensor::tanh_f32(n, n, H);
    const std::int8_t* qh = h.row_data(b);
    float* hb = out + b * H;
    for (std::size_t j = 0; j < H; ++j) {
      const float z = g[H + j];
      hb[j] = (1.0f - z) * n[j] + z * (sh * static_cast<float>(qh[j]));
    }
    h.set_row_scale(b, tensor::quantize_row(hb, h.row_data(b), H));
  }
  return out;
}

// ---------------------------------------------------------------- LstmCell

LstmCell::LstmCell(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : RecurrentCell(input_size, hidden_size) {
  wx_ = register_parameter("lstm.wx",
                           Matrix::xavier(input_size, 4 * hidden_size, rng));
  wh_ = register_parameter("lstm.wh", packed_orthogonal(hidden_size, 4, rng));
  Matrix bias = Matrix::zeros(1, 4 * hidden_size);
  // Forget-gate bias = 1 eases gradient flow early in training.
  for (std::size_t j = hidden_size; j < 2 * hidden_size; ++j) {
    bias[j] = 1.0f;
  }
  b_ = register_parameter("lstm.b", std::move(bias));
}

CellState LstmCell::step(const CellState& state, const Variable& x) const {
  const Variable& h = state[0];
  const Variable& c = state[1];
  const std::size_t H = hidden_size_;
  Variable gates =
      add_broadcast(add(matmul(x, wx_), matmul(h, wh_)), b_);  // [B x 4H]

  Variable i = sigmoid(slice_cols(gates, 0, H));
  Variable f = sigmoid(slice_cols(gates, H, H));
  Variable g = tanh_op(slice_cols(gates, 2 * H, H));
  Variable o = sigmoid(slice_cols(gates, 3 * H, H));

  Variable c_next = add(mul(f, c), mul(i, g));
  Variable h_next = mul(o, tanh_op(c_next));
  return {h_next, c_next};
}

void LstmCell::infer_step(std::vector<Matrix>& state, const Matrix& x) const {
  const std::size_t H = hidden_size_;
  Matrix gates = x.matmul(wx_.value());
  gates.add_inplace(state[0].matmul(wh_.value()));
  gates.add_row_broadcast_inplace(b_.value());
  Matrix& h = state[0];
  Matrix& c = state[1];
  // The gates are computed in place, [i | f | g | o] per row; h, already
  // consumed by the product, holds tanh(c') before the output gate.
  for (std::size_t b = 0; b < h.rows(); ++b) {
    float* g = gates.row(b).data();
    tensor::sigmoid_f32(g, g, 2 * H);
    tensor::tanh_f32(g + 2 * H, g + 2 * H, H);
    tensor::sigmoid_f32(g + 3 * H, g + 3 * H, H);
    float* cb = c.row(b).data();
    for (std::size_t j = 0; j < H; ++j) {
      cb[j] = g[H + j] * cb[j] + g[j] * g[2 * H + j];
    }
    float* hb = h.row(b).data();
    tensor::tanh_f32(cb, hb, H);
    for (std::size_t j = 0; j < H; ++j) hb[j] = g[3 * H + j] * hb[j];
  }
}

}  // namespace pp::nn
