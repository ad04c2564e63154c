#include "util/softfloat.hpp"

#include <sstream>

namespace g6 {

double FloatFormat::quantize_ref(double x) const {
  if (x == 0.0 || std::isnan(x)) return x;
  if (std::isinf(x)) return std::copysign(max_value(), x);
  int e = 0;
  double m = std::frexp(x, &e);  // |m| in [0.5, 1)
  const double scale = std::ldexp(1.0, frac_bits_ + 1);
  double r = std::nearbyint(m * scale) / scale;
  if (std::fabs(r) >= 1.0) {  // rounding carried into the next binade
    r *= 0.5;
    ++e;
  }
  if (e < exp_min_) return std::copysign(0.0, x);
  if (e > exp_max_) return std::copysign(max_value(), x);
  return std::ldexp(r, e);
}

std::string FloatFormat::describe() const {
  std::ostringstream os;
  os << "float<1," << frac_bits_ << ",e[" << exp_min_ << ',' << exp_max_ << "]>";
  return os.str();
}

}  // namespace g6
