// Dense row-major float matrix: the numeric workhorse of the NN substrate.
// Deliberately small — just the operations the layers need — with contract
// checks on every shape-sensitive operation.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace cpsguard::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols);
  Matrix(int rows, int cols, std::vector<float> data);

  static Matrix zeros(int rows, int cols);
  static Matrix full(int rows, int cols, float value);
  /// Build from an initializer-style nested vector (tests, fixtures).
  static Matrix from_rows(const std::vector<std::vector<float>>& rows);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  float& at(int r, int c);
  [[nodiscard]] float at(int r, int c) const;

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  [[nodiscard]] std::span<float> row(int r);
  [[nodiscard]] std::span<const float> row(int r) const;

  void fill(float value);
  void set_zero() { fill(0.0f); }

  /// this += other (same shape).
  void add_in_place(const Matrix& other);
  /// this += alpha * other (same shape).
  void axpy(float alpha, const Matrix& other);
  /// this *= alpha.
  void scale(float alpha);
  /// Element-wise product: this *= other (same shape).
  void hadamard_in_place(const Matrix& other);

  /// Add a row vector (1 x cols or plain span) to every row — bias add.
  void add_row_vector(std::span<const float> v);

  [[nodiscard]] Matrix transpose() const;

  /// Sum over rows → 1 x cols (bias gradient).
  [[nodiscard]] Matrix column_sums() const;

  [[nodiscard]] float max_abs() const;
  [[nodiscard]] float sum() const;

  [[nodiscard]] std::string shape_str() const;

  friend bool operator==(const Matrix& a, const Matrix& b);

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B. Blocked/unrolled kernel; large products shard output rows
/// across the shared thread pool. Deterministic: per-element accumulation
/// order is fixed (ascending reduction index), so results are bit-identical
/// regardless of thread count. NaN/Inf in either operand propagate per IEEE.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B (avoids materializing the transpose). Same kernel contract
/// as matmul.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T. Per-element double-precision dot products in ascending
/// reduction order; same determinism contract as matmul.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Element-wise c = a - b.
Matrix subtract(const Matrix& a, const Matrix& b);
/// Element-wise c = a + b.
Matrix add(const Matrix& a, const Matrix& b);
/// Element-wise c = a ⊙ b.
Matrix hadamard(const Matrix& a, const Matrix& b);

/// Row-wise softmax (numerically stabilized with the row max).
Matrix softmax_rows(const Matrix& logits);

/// decide()'s answer when it refuses to classify.
inline constexpr int kNoVerdict = -1;

/// The one decision rule that turns a scored window into a verdict, used by
/// every offline predict, the streaming engine and the online monitors.
/// `window` is the input the model scored (in its scaled space) and `probs`
/// that window's probability row. Returns the argmax class, ties going to
/// the smallest index (a strict `>` scan: an exactly tied binary row is the
/// safe class 0), or kNoVerdict when any window value or probability is NaN
/// or ±inf. The input is checked, not only the output, because an MLP's
/// ReLU maps a NaN feature to 0 and so scores finite probabilities for a
/// window that holds no data.
[[nodiscard]] int decide(std::span<const float> window,
                         std::span<const float> probs);

}  // namespace cpsguard::nn
