#include "query/predicate.h"

#include <charconv>

namespace confcard {
namespace {

void Append(std::string& out, int value) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// The default `operator<<` rendering, printf's "%g" with 6 significant
// digits ("inf", "-nan", "1e-07"), without a stream per call.
void Append(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 6)
                      .ptr);
}

void Append(std::string& out, const Predicate& pred) {
  if (pred.op == PredOp::kEq) {
    out += 'c';
    Append(out, pred.column);
    out += '=';
    Append(out, pred.lo);
  } else {
    Append(out, pred.lo);
    out += "<=c";
    Append(out, pred.column);
    out += "<=";
    Append(out, pred.hi);
  }
}

}  // namespace

std::string ToString(const Predicate& pred) {
  std::string out;
  Append(out, pred);
  return out;
}

std::string ToString(const Query& query) {
  std::string out;
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    if (i > 0) out += " AND ";
    Append(out, query.predicates[i]);
  }
  return out;
}

}  // namespace confcard
