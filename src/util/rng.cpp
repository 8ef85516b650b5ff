#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace tegrec::util {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  // std::normal_distribution requires stddev > 0, but callers pass 0 for
  // "no noise".  Scale a unit draw instead: libstdc++ returns exactly
  // z * stddev + mean, so the stream is unchanged for stddev > 0, and a
  // zero stddev still consumes the same engine draws.
  if (!std::isfinite(stddev) || stddev < 0.0) {
    throw std::invalid_argument("Rng::gaussian: stddev must be finite and >= 0");
  }
  std::normal_distribution<double> unit(0.0, 1.0);
  return unit(engine_) * stddev + mean;
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::ou_step(double x, double mean, double reversion, double sigma,
                    double dt) {
  const double drift = reversion * (mean - x) * dt;
  const double diffusion = sigma * std::sqrt(dt) * gaussian(0.0, 1.0);
  return x + drift + diffusion;
}

}  // namespace tegrec::util
