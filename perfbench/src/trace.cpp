#include "trace.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::open(std::string name) {
  if (!enabled_) {
    return -1;
  }
  SpanRecord s;
  s.name = std::move(name);
  s.start = now();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.solve = solve_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].end = now();
  // Spans are strictly nested (RAII on one thread): `id` is the innermost.
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

void Tracer::rename(int id, std::string name) {
  if (id >= 0) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }
}

std::map<std::string, double> Tracer::self_seconds(std::size_t from) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] += (spans_[i].end - spans_[i].start) - child[i];
  }
  return out;
}

std::map<std::string, double> Tracer::inclusive_seconds(
    std::size_t from) const {
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end - spans_[i].start;
  }
  return out;
}

std::map<std::string, std::int64_t> Tracer::counts(std::size_t from) const {
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    ++out[spans_[i].name];
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"solve\": %llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.solve));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void TracedPrecond::apply(std::span<const double> r, std::span<double> e) {
  const Span s("precond.apply");
  inner_.apply(r, e);
}

void TracedPrecond::apply_many(const smg::MultiVector<double>& r,
                               smg::MultiVector<double>& e) {
  const Span s("panel.apply");
  inner_.apply_many(r, e);
}

smg::LinOp<double> traced_op(smg::LinOp<double> op, const char* name) {
  return [op = std::move(op), name](std::span<const double> x,
                                    std::span<double> y) {
    const Span s(name);
    op(x, y);
  };
}

smg::LinOpMany<double> traced_op_many(smg::LinOpMany<double> op,
                                      const char* name) {
  return [op = std::move(op), name](const smg::MultiVector<double>& x,
                                    smg::MultiVector<double>& y) {
    const Span s(name);
    op(x, y);
  };
}

}  // namespace perfbench
