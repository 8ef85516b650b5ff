#include "teg/array_evaluator.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tegrec::teg {

namespace {

// Both block kernels compute, for each group k in [0, count), the port
// model of modules [starts[k], starts[k+1]):
//   r[k]   = 1 / (cp[starts[k+1]] - cp[starts[k]])
//   voc[k] = (np[starts[k+1]] - np[starts[k]]) * r[k]
// Every step is a single exactly-rounded IEEE-754 operation (subtract,
// divide, multiply — no fused ops in either kernel), so the buffers they
// fill are bit-identical; the caller owns the (sequential) accumulation.
void group_block_scalar(const double* cp, const double* np,
                        const std::size_t* starts, std::size_t count,
                        double* voc, double* r) {
  for (std::size_t k = 0; k < count; ++k) {
    const double gd = cp[starts[k + 1]] - cp[starts[k]];
    const double nd = np[starts[k + 1]] - np[starts[k]];
    r[k] = 1.0 / gd;
    voc[k] = nd * r[k];
  }
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void group_block_avx2(
    const double* cp, const double* np, const std::size_t* starts,
    std::size_t count, double* voc, double* r) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    // Group starts are 64-bit indices into the prefix arrays; the begin
    // indices of lanes k..k+3 and the end indices (the next four starts)
    // overlap by three lanes, so two unaligned loads cover both.
    const __m256i ib =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(starts + k));
    const __m256i ie =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(starts + k + 1));
    const __m256d gd = _mm256_sub_pd(_mm256_i64gather_pd(cp, ie, 8),
                                     _mm256_i64gather_pd(cp, ib, 8));
    const __m256d nd = _mm256_sub_pd(_mm256_i64gather_pd(np, ie, 8),
                                     _mm256_i64gather_pd(np, ib, 8));
    const __m256d rv = _mm256_div_pd(one, gd);
    _mm256_storeu_pd(r + k, rv);
    _mm256_storeu_pd(voc + k, _mm256_mul_pd(nd, rv));
  }
  for (; k < count; ++k) {
    const double gd = cp[starts[k + 1]] - cp[starts[k]];
    const double nd = np[starts[k + 1]] - np[starts[k]];
    r[k] = 1.0 / gd;
    voc[k] = nd * r[k];
  }
}
#endif

}  // namespace

ArrayEvaluator::ArrayEvaluator(const TegArray& array) {
  const std::size_t n = array.size();
  conductance_prefix_.resize(n + 1, 0.0);
  norton_prefix_.resize(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const LinearSource& m = array.module(i).port();
    conductance_prefix_[i + 1] = conductance_prefix_[i] + 1.0 / m.r_ohm;
    norton_prefix_[i + 1] = norton_prefix_[i] + m.voc_v / m.r_ohm;
    ideal_power_w_ += m.mpp_power_w();
  }
}

bool ArrayEvaluator::simd_available() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void ArrayEvaluator::set_kernel(ScoringKernel kernel) {
  if (kernel == ScoringKernel::kSimd && !simd_available()) {
    throw std::invalid_argument(
        "ArrayEvaluator::set_kernel: SIMD kernel unavailable on this host");
  }
  kernel_ = kernel;
}

LinearSource ArrayEvaluator::group_equivalent(std::size_t begin,
                                              std::size_t end) const {
  if (begin >= end || end > size()) {
    throw std::out_of_range("ArrayEvaluator::group_equivalent: bad range");
  }
  const double g_sum = conductance_prefix_[end] - conductance_prefix_[begin];
  const double norton = norton_prefix_[end] - norton_prefix_[begin];
  LinearSource out;
  out.r_ohm = 1.0 / g_sum;
  out.voc_v = norton * out.r_ohm;
  return out;
}

LinearSource ArrayEvaluator::string_equivalent(const ArrayConfig& config) const {
  if (config.num_modules() != size()) {
    throw std::invalid_argument(
        "ArrayEvaluator::string_equivalent: config size mismatch");
  }
  return string_equivalent(std::span<const std::size_t>(config.group_starts()));
}

LinearSource ArrayEvaluator::string_equivalent(
    std::span<const std::size_t> group_starts) const {
  if (group_starts.empty() || group_starts.front() != 0) {
    throw std::invalid_argument(
        "ArrayEvaluator::string_equivalent: group starts must begin at 0");
  }
  const std::size_t m = group_starts.size();
  // Validate every range up front so the block kernels can assume clean
  // input; a non-increasing or out-of-range start raises the same
  // exception group_equivalent would have raised mid-scan.
  for (std::size_t j = 1; j < m; ++j) {
    if (group_starts[j] <= group_starts[j - 1]) {
      throw std::out_of_range("ArrayEvaluator::group_equivalent: bad range");
    }
  }
  if (group_starts.back() >= size()) {
    throw std::out_of_range("ArrayEvaluator::group_equivalent: bad range");
  }

#if defined(__x86_64__) || defined(__i386__)
  static const bool simd_ok = simd_available();
  const bool use_simd =
      kernel_ == ScoringKernel::kSimd ||
      (kernel_ == ScoringKernel::kAuto && simd_ok);
#endif
  const double* cp = conductance_prefix_.data();
  const double* np = norton_prefix_.data();

  constexpr std::size_t kBlock = 64;
  double voc_buf[kBlock];
  double r_buf[kBlock];
  LinearSource out;
  for (std::size_t j0 = 0; j0 < m; j0 += kBlock) {
    const std::size_t len = std::min(kBlock, m - j0);
    // Every group's end is the next start except the final group of the
    // configuration, whose end is the array size; the kernels handle the
    // uniform prefix, the final group is patched in below.
    const std::size_t uniform = j0 + len < m ? len : len - 1;
#if defined(__x86_64__) || defined(__i386__)
    if (use_simd) {
      group_block_avx2(cp, np, group_starts.data() + j0, uniform, voc_buf,
                       r_buf);
    } else
#endif
    {
      group_block_scalar(cp, np, group_starts.data() + j0, uniform, voc_buf,
                         r_buf);
    }
    if (uniform < len) {
      const double gd = cp[size()] - cp[group_starts[m - 1]];
      const double nd = np[size()] - np[group_starts[m - 1]];
      r_buf[uniform] = 1.0 / gd;
      voc_buf[uniform] = nd * r_buf[uniform];
    }
    // Sequential accumulation in group order — identical for both kernels
    // and to the pre-blocked implementation.
    for (std::size_t k = 0; k < len; ++k) {
      out.voc_v += voc_buf[k];
      out.r_ohm += r_buf[k];
    }
  }
  return out;
}

}  // namespace tegrec::teg
