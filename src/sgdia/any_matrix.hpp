// Type-erased SG-DIA matrix over the supported storage precisions.
//
// The multigrid hierarchy decides storage precision per level at runtime
// (MGConfig::storage_ladder, §4.3); AnyMat lets a Level own "a matrix in
// whatever precision setup chose" while kernels stay statically typed via
// std::visit dispatch.
#pragma once

#include <variant>

#include "sgdia/struct_matrix.hpp"

namespace smg {

class AnyMat {
 public:
  using Variant = std::variant<StructMat<double>, StructMat<float>,
                               StructMat<half>, StructMat<bfloat16>,
                               StructMat<fp8>>;

  AnyMat() : m_(StructMat<double>{}) {}

  template <class T>
  explicit AnyMat(StructMat<T> m) : m_(std::move(m)) {}

  /// Truncate `src` into the requested precision and layout.
  static AnyMat from(const StructMat<double>& src, Prec p, Layout layout,
                     TruncateReport* report = nullptr);

  /// Re-truncate `src` into this matrix.  When the currently held matrix
  /// already has precision `p`, layout `layout`, and `src`'s shape, values
  /// are overwritten in place (no allocation — the autopilot's repair path);
  /// otherwise the held matrix is replaced, e.g. on an FP16 -> FP32 level
  /// promotion.
  void retruncate_from(const StructMat<double>& src, Prec p, Layout layout,
                       TruncateReport* report = nullptr);

  Prec precision() const noexcept;
  Layout layout() const noexcept;
  const Box& box() const noexcept;
  const Stencil& stencil() const noexcept;
  int block_size() const noexcept;
  std::int64_t ncells() const noexcept;
  std::int64_t nrows() const noexcept;
  std::size_t value_bytes() const noexcept;
  std::int64_t nnz_logical() const noexcept;

  template <class F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), m_);
  }

  template <class T>
  const StructMat<T>* get_if() const noexcept {
    return std::get_if<StructMat<T>>(&m_);
  }

 private:
  Variant m_;
};

}  // namespace smg
