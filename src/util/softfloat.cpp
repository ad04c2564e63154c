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

int host_lane_width() {
#if defined(__x86_64__)
  // x86-64-v3's AVX2, FMA and BMI1/2, named one by one because compilers
  // disagree on accepting the level's own name here. Every CPU with these
  // has the rest of the level (F16C, LZCNT, MOVBE).
  static const int width = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
                   __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2")
               ? 4
               : 2;
  }();
  return width;
#else
  return 2;
#endif
}

std::string FloatFormat::describe() const {
  std::ostringstream os;
  os << "float<1," << frac_bits_ << ",e[" << exp_min_ << ',' << exp_max_ << "]>";
  return os.str();
}

}  // namespace g6
