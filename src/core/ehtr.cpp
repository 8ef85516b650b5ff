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
#include "power/mppt.hpp"
#include "teg/module.hpp"
#include "util/parallel.hpp"

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
                               std::size_t initial_groups) {
  assign(mpp_currents, max_groups, dp_kind, initial_groups);
}

void PartitionTable::assign(const std::vector<double>& mpp_currents,
                            std::size_t max_groups, PartitionDp dp_kind,
                            std::size_t initial_groups) {
  const std::size_t count = mpp_currents.size();
  if (count == 0) throw std::invalid_argument("PartitionTable: empty input");
  if (max_groups == 0 || max_groups > count) {
    throw std::invalid_argument("PartitionTable: bad max_groups");
  }
  if (count >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("PartitionTable: array too large");
  }
  count_ = count;
  max_groups_ = max_groups;
  dp_kind_ = dp_kind;
  solved_groups_ = 0;
  parents_.clear();
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

bool SplitMoments::assign(std::span<const teg::LinearSource> ports) {
  total_g = 0.0;
  double norton = 0.0;
  double min_g = kInf;
  for (const teg::LinearSource& m : ports) {
    if (!std::isfinite(m.voc_v) || !std::isfinite(m.r_ohm) || m.r_ohm <= 0.0) {
      return false;
    }
    // Summed in port order, as ArrayEvaluator sums its prefixes.
    total_g += 1.0 / m.r_ohm;
    norton += m.voc_v / m.r_ohm;
    min_g = std::min(min_g, 1.0 / m.r_ohm);
  }
  if (!(std::isfinite(total_g) && total_g > 0.0)) return false;
  mean_voc = norton * (1.0 / total_g);
  spread = 0.0;
  for (const teg::LinearSource& m : ports) {
    const double d = m.voc_v - mean_voc;
    spread += d * d / m.r_ohm;
  }
  const double count = static_cast<double>(ports.size());
  margin = 4.0 * (count + 8.0) * std::numeric_limits<double>::epsilon() *
           (total_g / (count * min_g));
  return true;
}

double SplitMoments::bound(const power::OutputPowerBound& b,
                           std::size_t n) const {
  if (!(margin <= 1e-6)) return kInf;
  const double nd = static_cast<double>(n);
  const double r0 = nd * nd / total_g;
  return b.at_spread(nd * mean_voc * (1.0 + margin), r0 * (1.0 - margin),
                     spread * r0 * (1.0 + margin) * (1.0 + margin));
}

teg::ArrayConfig ehtr_search(std::span<const teg::LinearSource> ports,
                             const power::Converter& converter,
                             std::size_t num_threads, PartitionDp dp_kind,
                             std::size_t max_groups,
                             const EhtrWarmStart& warm,
                             EhtrSearchStats* stats) {
  EhtrScratch scratch;
  return ehtr_search(ports, converter, num_threads, dp_kind, max_groups, warm,
                     scratch, stats);
}

teg::ArrayConfig ehtr_search(std::span<const teg::LinearSource> ports,
                             const power::Converter& converter,
                             std::size_t num_threads, PartitionDp dp_kind,
                             std::size_t max_groups, const EhtrWarmStart& warm,
                             EhtrScratch& scratch, EhtrSearchStats* stats) {
  // The DP only accepts finite currents; treat non-finite modules (NaN
  // temperatures, open faults) as stone cold, the same way inor_partition
  // treats dead modules.  Scoring below still sees the true NaN powers, so
  // a fully degenerate array falls back to the first candidate.
  std::vector<double>& impp = scratch.impp;
  impp.clear();
  for (const teg::LinearSource& m : ports) {
    const double x = m.mpp_current_a();
    impp.push_back(std::isfinite(x) ? x : 0.0);
  }
  const std::size_t count = ports.size();
  if (max_groups == 0 || max_groups > count) max_groups = count;

  // Warm-start prerequisites.  The score bounds below need every module's
  // open-circuit voltage finite and its resistance finite and positive;
  // anything degenerate (NaN temperature spikes, open faults) turns the
  // warm pass off and the search runs the plain cold sweep.
  SplitMoments moments;
  const bool warm_ok =
      warm.enabled && max_groups > 1 && moments.assign(ports);
  std::vector<double>& voc_top_prefix = scratch.voc_top_prefix;
  if (warm_ok) {
    // The vocs are sorted in place, then summed into the prefix.
    voc_top_prefix.resize(count + 1);
    voc_top_prefix[0] = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      voc_top_prefix[i + 1] = ports[i].voc_v;
    }
    std::sort(voc_top_prefix.begin() + 1, voc_top_prefix.end(),
              std::greater<double>());
    for (std::size_t i = 0; i < count; ++i) {
      voc_top_prefix[i + 1] += voc_top_prefix[i];
    }
  }

  // First DP frontier: the incumbent group count (or the converter's
  // efficient window when there is no incumbent yet) plus the width.  Cold
  // search solves everything up front.
  std::size_t initial = max_groups;
  std::size_t seed = 0;
  if (warm_ok) {
    std::size_t base = warm.incumbent_groups;
    if (base == 0 || base > max_groups) {
      base = group_count_window(ports, converter).nmax;
    }
    initial = std::min(max_groups, std::max<std::size_t>(1, base + warm.width));
    seed = std::clamp<std::size_t>(base, 1, initial);
  }
  PartitionTable& table = scratch.table;
  table.assign(impp, max_groups, dp_kind, initial);
  teg::ArrayEvaluator& evaluator = scratch.evaluator;
  evaluator.assign(ports);

  // Streamed scoring: candidates are reconstructed chunk by chunk into
  // per-chunk scratch and scored immediately — only the score table (O(N)
  // doubles) and one starts buffer per in-flight chunk stay resident,
  // never the O(N^2) materialised candidate vector.  Each n's score is
  // independent of the chunking, and the argmax below is a sequential
  // lowest-index scan, so the chosen config is bit-identical for every
  // thread count and every warm/cold schedule.
  std::vector<double>& scores = scratch.scores;
  scores.assign(max_groups, 0.0);
  const std::size_t workers =
      num_threads == 0 ? util::default_parallelism() : num_threads;
  std::size_t scored = 0;
  // Scores group counts (lo_n, hi_n] except `skip_n`.  With a gate, a
  // candidate whose bound at its own port is strictly below `floor` gets
  // -inf instead of the golden section: the bound holds every output at or
  // above the floor, so its true score is below the floor, a score already
  // seen.  A NaN bound compares false and the candidate is scored.
  auto score_range = [&](std::size_t lo_n, std::size_t hi_n,
                         const power::OutputPowerBound* gate, double floor,
                         std::size_t skip_n) {
    if (hi_n <= lo_n) return;
    // ~4 chunks per worker keeps the atomic-claiming load balancer
    // effective while amortising each chunk's scratch buffer over many
    // candidates.
    const std::size_t span = hi_n - lo_n;
    const std::size_t num_chunks =
        std::min(span, std::max<std::size_t>(1, 4 * workers));
    const std::size_t chunk_len = (span + num_chunks - 1) / num_chunks;
    if (scratch.chunk_starts.size() < num_chunks) {
      scratch.chunk_starts.resize(num_chunks);
    }
    scratch.chunk_scored.assign(num_chunks, 0);
    util::parallel_for(num_chunks, num_threads, [&](std::size_t c) {
      const std::size_t first_n = lo_n + 1 + c * chunk_len;
      const std::size_t last_n = std::min(hi_n, first_n + chunk_len - 1);
      std::vector<std::size_t>& starts = scratch.chunk_starts[c];
      std::size_t chunk_scored = 0;
      for (std::size_t n = first_n; n <= last_n; ++n) {
        if (n == skip_n) continue;
        table.reconstruct(n, starts);
        const teg::LinearSource port =
            evaluator.string_equivalent(std::span<const std::size_t>(starts));
        if (gate != nullptr && gate->at(port.voc_v, port.r_ohm) < floor) {
          scores[n - 1] = -kInf;
          continue;
        }
        // config_power_w's own steps, on the port already in hand.
        scores[n - 1] =
            power::optimal_operating_point(port, converter).output_power_w;
        ++chunk_scored;
      }
      scratch.chunk_scored[c] = chunk_scored;
    });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      scored += scratch.chunk_scored[c];
    }
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
  if (warm_ok) {
    // The incumbent's score is the floor for the rest of the solved range.
    score_range(seed - 1, seed, nullptr, 0.0, 0);
    const double floor = scores[seed - 1] > best_power ? scores[seed - 1]
                                                       : best_power;
    const power::OutputPowerBound gate(converter, floor);
    score_range(0, solved, &gate, floor, seed);
  } else {
    score_range(0, solved, nullptr, 0.0, 0);
  }
  fold_argmax(solved);
  // Certified extension loop.  Both bounds (see ehtr_search) hold every
  // n-group score above the best, so an unscored n that either puts
  // strictly below the best can never win: the argmax only moves on a
  // strict improvement.  Extend the DP to the largest n neither rules out
  // (a NaN bound prunes nothing), score the new range, gated by each
  // candidate's own port, and repeat; when no n survives, the prefix argmax
  // IS the cold argmax.  Worst case the frontier reaches max_groups.
  while (solved < max_groups) {
    const power::OutputPowerBound bound(converter, best_power);
    std::size_t frontier = solved;
    for (std::size_t n = solved + 1; n <= max_groups; ++n) {
      const double nd = static_cast<double>(n);
      if (!(bound.at(voc_top_prefix[n], nd * nd / moments.total_g) <
                best_power ||
            moments.bound(bound, n) < best_power)) {
        frontier = n;
      }
    }
    if (frontier == solved) break;
    table.extend_to(frontier);
    solved = table.solved_groups();
    score_range(scanned, solved, &bound, best_power, 0);
    fold_argmax(solved);
  }

  if (stats != nullptr) {
    stats->max_groups = max_groups;
    stats->groups_certified = solved;
    stats->candidates_scored = scored;
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
  if (held_.holding(time_s)) return held_.hold();
  teg::module_ports(device_, delta_t_k, ambient_c, ports_);
  EhtrWarmStart warm;
  warm.enabled = warm_start_;
  warm.incumbent_groups = held_.has_config ? held_.config.num_groups() : 0;
  warm.width = warm_width_;
  return held_.decide(ehtr_search(ports_, converter_, num_threads_,
                                  PartitionDp::kDivideAndConquer, max_groups_,
                                  warm, scratch_),
                      /*adopt=*/true, /*always_actuate=*/true,
                      time_s + period_s_);
}

void EhtrReconfigurer::reset() { held_ = Held(); }

AlgorithmCost EhtrReconfigurer::algorithm_cost() const {
  return AlgorithmCost::ehtr();
}

std::string EhtrReconfigurer::checkpoint_state() const {
  return detail::encode_state("ehtr-v1", held_);
}

void EhtrReconfigurer::restore_checkpoint_state(const std::string& state) {
  held_ = detail::decode_state<Held>("ehtr-v1", state);
}

}  // namespace tegrec::core
