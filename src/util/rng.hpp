// Deterministic random number generation.
//
// Every stochastic component in the library (trace noise, BPNN weight
// initialisation, workload generators) takes an explicit seed so that
// experiments and tests are exactly reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace tegrec::util {

/// Thin wrapper around std::mt19937_64 with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedu) : engine_(seed) {}

  double uniform(double lo, double hi);
  /// Normal draw; stddev == 0 returns `mean` (still advancing the engine
  /// like any draw).  Throws std::invalid_argument on a negative or
  /// non-finite stddev.
  double gaussian(double mean, double stddev);
  int uniform_int(int lo, int hi);  ///< inclusive bounds
  bool bernoulli(double p);

  /// Ornstein-Uhlenbeck step: mean-reverting noise used for coolant
  /// temperature fluctuation.  `x` is the current value; returns the next.
  double ou_step(double x, double mean, double reversion, double sigma, double dt);

  std::vector<double> gaussian_vector(std::size_t n, double mean, double stddev);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace tegrec::util
