#include "core/ehtr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/objective.hpp"
#include "core/state_codec.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/module.hpp"
#include "util/parallel.hpp"
#include "util/runtime_clock.hpp"

namespace tegrec::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Fills dp_cur / parent_cur for columns [lo, hi] of one DP layer, knowing
// the argmin of every column lies in [klo, khi]:
//
//   dp_cur[i] = min_{k in [klo, min(khi, i - 1)]} dp_prev[k]
//               + (prefix[i] - prefix[k])^2
//
// The squared-segment-sum cost is Monge (quadrangle inequality) for
// non-negative currents, so the lowest argmin is monotone non-decreasing in
// i and the classic divide-and-conquer optimisation applies: solve the
// middle column by scanning its window, then recurse left/right with the
// window split at the found argmin.  Each recursion level scans O(hi - lo +
// khi - klo) candidates and the depth is O(log N), giving O(N log N) per
// layer.  The initial call passes klo = j (the layer's smallest legal k)
// and recursion only ever raises it, so klo stays legal throughout.  Ties
// resolve to the lowest k — the same first-strict-improvement rule as the
// cubic oracle, which keeps the two DPs' costs bit-identical whenever the
// rounded costs stay Monge (inputs are validated finite; same-scale
// physical MPP currents keep rounding far below the Monge gap).
void solve_layer(const std::vector<double>& prefix,
                 const std::vector<double>& dp_prev, std::size_t lo,
                 std::size_t hi, std::size_t klo, std::size_t khi,
                 std::vector<double>& dp_cur, std::uint32_t* parent_cur) {
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t k_end = std::min(khi, mid - 1);  // inclusive; mid >= 2
  double best = kInf;
  std::size_t best_k = klo;
  for (std::size_t k = klo; k <= k_end; ++k) {
    const double s = prefix[mid] - prefix[k];
    const double c = dp_prev[k] + s * s;
    if (c < best) {
      best = c;
      best_k = k;
    }
  }
  dp_cur[mid] = best;
  parent_cur[mid] = static_cast<std::uint32_t>(best_k);
  if (mid > lo) {
    solve_layer(prefix, dp_prev, lo, mid - 1, klo, best_k, dp_cur, parent_cur);
  }
  if (mid < hi) {
    solve_layer(prefix, dp_prev, mid + 1, hi, best_k, khi, dp_cur, parent_cur);
  }
}

}  // namespace

PartitionTable::PartitionTable(const std::vector<double>& mpp_currents,
                               std::size_t max_groups, PartitionDp dp_kind,
                               std::size_t initial_groups)
    : count_(mpp_currents.size()), max_groups_(max_groups),
      dp_kind_(dp_kind) {
  if (count_ == 0) throw std::invalid_argument("PartitionTable: empty input");
  if (max_groups_ == 0 || max_groups_ > count_) {
    throw std::invalid_argument("PartitionTable: bad max_groups");
  }
  if (count_ >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("PartitionTable: array too large");
  }
  prefix_.assign(count_ + 1, 0.0);
  for (std::size_t i = 0; i < count_; ++i) {
    // Rejecting NaN/inf here (not just negatives) is what lets the
    // divide-and-conquer path promise oracle-identical results: non-finite
    // costs would break the argmin monotonicity the recursion relies on.
    if (!std::isfinite(mpp_currents[i]) || mpp_currents[i] < 0.0) {
      throw std::invalid_argument("PartitionTable: non-finite or negative current");
    }
    prefix_[i + 1] = prefix_[i] + mpp_currents[i];
  }
  // Layer 0 (one group) is closed form; deeper layers are appended on
  // demand by extend_to, which keeps the two value rows live between
  // calls.  Layer j reads only layer j - 1, so the split into
  // construction + extensions leaves every solved layer bit-identical to
  // a one-shot full solve.
  dp_prev_.assign(count_ + 1, kInf);
  dp_cur_.assign(count_ + 1, kInf);
  for (std::size_t i = 1; i <= count_; ++i) {
    const double s = prefix_[i] - prefix_[0];
    dp_prev_[i] = s * s;
  }
  solved_groups_ = 1;
  extend_to(initial_groups == 0 ? max_groups_ : initial_groups);
}

void PartitionTable::solve_one_layer(std::size_t j) {
  const std::size_t stride = count_ + 1;
  std::uint32_t* parent_row = parents_.data() + (j - 1) * stride;
  if (dp_kind_ == PartitionDp::kLegacyCubic) {
    for (std::size_t i = j + 1; i <= count_; ++i) {
      double best = kInf;
      std::size_t best_k = j;
      for (std::size_t k = j; k < i; ++k) {
        const double s = prefix_[i] - prefix_[k];
        const double c = dp_prev_[k] + s * s;
        if (c < best) {
          best = c;
          best_k = k;
        }
      }
      dp_cur_[i] = best;
      parent_row[i] = static_cast<std::uint32_t>(best_k);
    }
  } else {
    solve_layer(prefix_, dp_prev_, j + 1, count_, j, count_ - 1, dp_cur_,
                parent_row);
  }
  dp_prev_.swap(dp_cur_);
}

void PartitionTable::extend_to(std::size_t n) {
  if (n > max_groups_) n = max_groups_;
  if (n <= solved_groups_) return;
  const std::size_t stride = count_ + 1;
  // The parent arena tracks the solved depth, so an early-stopping warm
  // pass holds solved/max of the cold footprint.
  parents_.resize((n - 1) * stride, 0);
  for (std::size_t j = solved_groups_; j < n; ++j) solve_one_layer(j);
  solved_groups_ = n;
}

void PartitionTable::reconstruct(std::size_t n,
                                 std::vector<std::size_t>& starts) const {
  if (n == 0 || n > solved_groups_) {
    throw std::out_of_range("PartitionTable::reconstruct: bad group count");
  }
  starts.resize(n);
  const std::size_t stride = count_ + 1;
  std::size_t i = count_;
  for (std::size_t j = n; j-- > 1;) {
    const std::size_t k = parents_[(j - 1) * stride + i];
    starts[j] = k;
    i = k;
  }
  starts[0] = 0;
}

teg::ArrayConfig PartitionTable::config(std::size_t n) const {
  std::vector<std::size_t> starts;
  reconstruct(n, starts);
  return teg::ArrayConfig(std::move(starts), count_);
}

std::vector<teg::ArrayConfig> balanced_partitions(
    const std::vector<double>& mpp_currents, std::size_t max_n,
    PartitionDp dp_kind) {
  const PartitionTable table(mpp_currents, max_n, dp_kind);
  std::vector<teg::ArrayConfig> out;
  out.reserve(max_n);
  table.for_each_candidate([&](std::size_t, const std::vector<std::size_t>& starts) {
    out.emplace_back(starts, table.num_modules());
  });
  return out;
}

teg::ArrayConfig ehtr_search(const teg::TegArray& array,
                             const power::Converter& converter,
                             std::size_t num_threads, PartitionDp dp_kind,
                             std::size_t max_groups,
                             const EhtrWarmStart& warm,
                             EhtrSearchStats* stats) {
  std::vector<double> impp = array.module_mpp_currents();
  // The DP only accepts finite currents; treat non-finite modules (NaN
  // temperatures, open faults) as stone cold, the same way inor_partition
  // treats dead modules.  Scoring below still sees the true NaN powers, so
  // a fully degenerate array falls back to the first candidate.
  for (double& x : impp) {
    if (!std::isfinite(x)) x = 0.0;
  }
  const std::size_t count = array.size();
  if (max_groups == 0 || max_groups > count) max_groups = count;

  // Warm-start prerequisites.  The score bound below needs every module's
  // open-circuit voltage finite and its resistance finite and positive;
  // anything degenerate (NaN temperature spikes, open faults) turns the
  // warm pass off and the search runs the plain cold sweep.
  bool warm_ok = warm.enabled && max_groups > 1;
  std::vector<double> voc_top_prefix;  // [n] = sum of the n largest vocs
  double total_g = 0.0;
  if (warm_ok) {
    std::vector<double> vocs(count);
    for (std::size_t i = 0; i < count && warm_ok; ++i) {
      const teg::LinearSource& m = array.module(i).port();
      const double voc = m.voc_v;
      const double r = m.r_ohm;
      if (!std::isfinite(voc) || !std::isfinite(r) || r <= 0.0) {
        warm_ok = false;
      } else {
        vocs[i] = voc;
        total_g += 1.0 / r;
      }
    }
    if (warm_ok && !(std::isfinite(total_g) && total_g > 0.0)) warm_ok = false;
    if (warm_ok) {
      std::sort(vocs.begin(), vocs.end(), std::greater<double>());
      voc_top_prefix.assign(count + 1, 0.0);
      for (std::size_t i = 0; i < count; ++i) {
        voc_top_prefix[i + 1] = voc_top_prefix[i] + vocs[i];
      }
    }
  }

  // Upper bound on the charger-aware score of ANY n-group partition:
  //  * string voc <= Vtop(n): each group's voc is the conductance-weighted
  //    mean of its members (<= its max member), and n disjoint groups'
  //    maxima are n distinct modules, so their sum <= the top-n voc sum;
  //  * string resistance >= n^2 / G by AM-HM over the group conductances;
  //  * the converter outputs at most eta_peak * min(P_cap, Pin), and zero
  //    outside its input-voltage window, so the best input power is
  //    max_{v in [vmin, vmax]} v * (voc - v) / r — concave in v, hence
  //    attained at V/2 clamped into the window.
  const power::ConverterParams& cpar = converter.params();
  auto score_bound = [&](std::size_t n) {
    const double v_top = voc_top_prefix[n];
    const double g_over_n2 =
        total_g / (static_cast<double>(n) * static_cast<double>(n));
    const double v =
        std::clamp(v_top * 0.5, cpar.min_input_v, cpar.max_input_v);
    const double pq = v * std::max(v_top - v, 0.0) * g_over_n2;
    // 1e-9 relative headroom absorbs prefix-sum rounding slop; true scores
    // sit below the bound by at least the fixed-loss derating, orders of
    // magnitude more.
    return cpar.eta_peak * std::min(cpar.max_input_power_w, pq) *
           (1.0 + 1e-9);
  };

  // First DP frontier: a neighbourhood of the incumbent group count (or of
  // the converter's efficient window when there is no incumbent yet).
  // Cold search solves everything up front.
  std::size_t initial = max_groups;
  if (warm_ok) {
    std::size_t base = warm.incumbent_groups;
    if (base == 0 || base > max_groups) {
      base = group_count_window(array, converter).nmax;
    }
    initial = std::min(max_groups, std::max<std::size_t>(1, base + warm.width));
  }
  PartitionTable table(impp, max_groups, dp_kind, initial);
  const teg::ArrayEvaluator evaluator(array);

  // Streamed scoring: candidates are reconstructed chunk by chunk into
  // per-chunk scratch and scored immediately — only the score table (O(N)
  // doubles) and one starts buffer per in-flight chunk stay resident,
  // never the O(N^2) materialised candidate vector.  Each n's score is
  // independent of the chunking, and the argmax below is a sequential
  // lowest-index scan, so the chosen config is bit-identical for every
  // thread count and every warm/cold schedule.
  std::vector<double> scores(max_groups, 0.0);
  const std::size_t workers =
      num_threads == 0 ? util::default_parallelism() : num_threads;
  auto score_range = [&](std::size_t lo_n, std::size_t hi_n) {
    // Scores group counts (lo_n, hi_n].  ~4 chunks per worker keeps the
    // atomic-claiming load balancer effective while amortising each
    // chunk's scratch buffer over many candidates.
    const std::size_t span = hi_n - lo_n;
    const std::size_t num_chunks =
        std::min(span, std::max<std::size_t>(1, 4 * workers));
    const std::size_t chunk_len = (span + num_chunks - 1) / num_chunks;
    util::parallel_for(num_chunks, num_threads, [&](std::size_t c) {
      const std::size_t first_n = lo_n + 1 + c * chunk_len;
      const std::size_t last_n = std::min(hi_n, first_n + chunk_len - 1);
      std::vector<std::size_t> starts;
      starts.reserve(last_n);
      for (std::size_t n = first_n; n <= last_n; ++n) {
        table.reconstruct(n, starts);
        scores[n - 1] = config_power_w(evaluator, converter, starts);
      }
    });
  };

  // Sequential lowest-index argmax over the scored prefix: deterministic
  // for every thread count.  NaN scores never beat the sentinel, so an
  // all-NaN field degrades to the first candidate instead of dereferencing
  // null.
  std::size_t best_n = 1;
  double best_power = -1.0;
  std::size_t scanned = 0;
  auto fold_argmax = [&](std::size_t upto_n) {
    for (std::size_t i = scanned; i < upto_n; ++i) {
      if (scores[i] > best_power) {
        best_power = scores[i];
        best_n = i + 1;
      }
    }
    scanned = upto_n;
  };

  std::size_t solved = table.solved_groups();
  score_range(0, solved);
  fold_argmax(solved);
  // Certified extension loop.  Any unscored n with score_bound(n) strictly
  // below the scored best can never win: the argmax only moves on a strict
  // improvement, and its score is at most the bound.  So extend the DP to
  // the largest n whose bound ties or beats the best, score the new range
  // for real, and repeat; when no bound survives, the prefix argmax IS the
  // cold argmax.  Worst case the frontier reaches max_groups and the warm
  // pass has performed exactly the cold computation.
  while (solved < max_groups) {
    std::size_t frontier = solved;
    for (std::size_t n = solved + 1; n <= max_groups; ++n) {
      if (score_bound(n) >= best_power) frontier = n;
    }
    if (frontier == solved) break;
    table.extend_to(frontier);
    solved = table.solved_groups();
    score_range(scanned, solved);
    fold_argmax(solved);
  }

  if (stats != nullptr) {
    stats->max_groups = max_groups;
    stats->groups_certified = solved;
    stats->warm_used = warm_ok;
  }
  return table.config(best_n);
}

EhtrReconfigurer::EhtrReconfigurer(const teg::DeviceParams& device,
                                   const power::ConverterParams& converter,
                                   double period_s, std::size_t num_threads,
                                   std::size_t max_groups, bool warm_start,
                                   std::size_t warm_width)
    : device_(device), converter_(converter), period_s_(period_s),
      num_threads_(num_threads), max_groups_(max_groups),
      warm_start_(warm_start), warm_width_(warm_width) {
  if (period_s <= 0.0) throw std::invalid_argument("EhtrReconfigurer: period <= 0");
}

UpdateResult EhtrReconfigurer::update(double time_s,
                                      const std::vector<double>& delta_t_k,
                                      double ambient_c) {
  UpdateResult result;
  if (has_config_ && time_s + 1e-9 < next_run_time_s_) {
    result.config = current_;
    return result;
  }
  const util::MonotonicTimer timer;
  const teg::TegArray array(device_, delta_t_k, ambient_c);
  EhtrWarmStart warm;
  warm.enabled = warm_start_;
  warm.incumbent_groups = has_config_ ? current_.num_groups() : 0;
  warm.width = warm_width_;
  teg::ArrayConfig next = ehtr_search(array, converter_, num_threads_,
                                      PartitionDp::kDivideAndConquer,
                                      max_groups_, warm);
  result.compute_time_s = timer.seconds();
  result.invoked = true;
  result.switched = !has_config_ || next != current_;
  result.actuate = true;  // periodic scheme: rebuild on every invocation
  current_ = std::move(next);
  has_config_ = true;
  next_run_time_s_ = time_s + period_s_;
  result.config = current_;
  return result;
}

void EhtrReconfigurer::reset() {
  has_config_ = false;
  next_run_time_s_ = 0.0;
  current_ = teg::ArrayConfig();
}

AlgorithmCost EhtrReconfigurer::algorithm_cost() const {
  return AlgorithmCost::ehtr();
}

std::string EhtrReconfigurer::checkpoint_state() const {
  return detail::encode_periodic_state(
      "ehtr-v1", {next_run_time_s_, has_config_, current_});
}

void EhtrReconfigurer::restore_checkpoint_state(const std::string& state) {
  detail::PeriodicState decoded = detail::decode_periodic_state("ehtr-v1", state);
  next_run_time_s_ = decoded.next_run_time_s;
  has_config_ = decoded.has_config;
  current_ = std::move(decoded.current);
}

}  // namespace tegrec::core
