#include "sgdia/any_matrix.hpp"

namespace smg {

AnyMat AnyMat::from(const StructMat<double>& src, Prec p, Layout layout,
                    TruncateReport* report) {
  return build(p, [&]<class T>(std::type_identity<T>) {
    return convert<T>(src, layout, report);
  });
}

void AnyMat::retruncate_from(const StructMat<double>& src, Prec p,
                             Layout layout, TruncateReport* report) {
  const bool in_place = std::visit(
      [&](auto& m) {
        using T = typename std::decay_t<decltype(m)>::value_type;
        if (prec_of_v<T> != p || m.layout() != layout ||
            m.box() != src.box() || m.block_size() != src.block_size() ||
            m.ndiag() != src.ndiag()) {
          return false;
        }
        convert_into(src, m, report);
        return true;
      },
      m_);
  if (!in_place) {
    *this = from(src, p, layout, report);
  }
}

Prec AnyMat::precision() const noexcept {
  return visit([](const auto& m) {
    using T = typename std::decay_t<decltype(m)>;
    return prec_of_v<typename T::value_type>;
  });
}

Layout AnyMat::layout() const noexcept {
  return visit([](const auto& m) { return m.layout(); });
}

const Box& AnyMat::box() const noexcept {
  return visit([](const auto& m) -> const Box& { return m.box(); });
}

const Stencil& AnyMat::stencil() const noexcept {
  return visit([](const auto& m) -> const Stencil& { return m.stencil(); });
}

int AnyMat::block_size() const noexcept {
  return visit([](const auto& m) { return m.block_size(); });
}

std::int64_t AnyMat::ncells() const noexcept {
  return visit([](const auto& m) { return m.ncells(); });
}

std::int64_t AnyMat::nrows() const noexcept {
  return visit([](const auto& m) { return m.nrows(); });
}

std::size_t AnyMat::value_bytes() const noexcept {
  return visit([](const auto& m) { return m.value_bytes(); });
}

std::int64_t AnyMat::nnz_logical() const noexcept {
  return visit([](const auto& m) { return m.nnz_logical(); });
}

}  // namespace smg
