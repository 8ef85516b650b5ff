// EHTR — Efficient Heuristic TEG Reconfiguration (prior work, Baek et al.,
// ISLPED 2017 [2]; re-implemented as the paper's comparison baseline).
//
// EHTR searches far harder than INOR: for every group count n in [1, N] it
// finds the *optimal* contiguous partition balancing the group MPP-current
// sums.  Minimising sum_j (S_j - Iideal)^2 for fixed n is equivalent to
// minimising sum_j S_j^2 (the cross terms are constant), which is
// n-independent and solvable for all n at once by dynamic programming:
//
//   dp[j][i] = min_k dp[j-1][k] + (prefix[i] - prefix[k])^2
//
// The naive DP is O(N^2) states with O(N) transitions — the O(N^3) runtime
// the paper attributes to EHTR.  The squared-segment-sum cost satisfies the
// quadrangle inequality for non-negative currents, so the per-layer argmin
// is monotone in i and each layer collapses to O(N log N) by
// divide-and-conquer optimisation: O(max_n * N log N) overall.  The cubic
// DP is retained behind PartitionDp::kLegacyCubic as the reference oracle
// (tests/test_ehtr_opt.cpp proves cost-identical partitions).  Each n's
// partition is then scored with the same charger-aware objective.  Like
// INOR in the paper's evaluation it re-runs every 0.5 s and always
// actuates, hence its large switching overhead in Table I.
//
// Warm starts (docs/actuation.md): across consecutive actuations the
// temperature field drifts slowly, so the optimal group count moves little.
// ehtr_search can therefore solve the DP only up to the incumbent group
// count and *certify* the rest away with per-n upper bounds on any n-group
// config's charger-aware score (a relaxed port and the modules' conductance
// moments, SplitMoments); whenever neither rules a region out, the DP is
// extended into it.  Inside the solved range the incumbent
// is scored first, and a candidate whose own port's bound falls below the
// best score seen skips the golden section.  In the worst case that
// converges to the full cold sweep, so the chosen config is bit-identical
// to cold search by construction; the cold sweep scores every candidate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/reconfigurer.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"

namespace tegrec::core {

/// Which partition DP to run.  For the finite, same-scale currents the
/// validation admits, both return cost-identical partitions; the cubic
/// oracle exists for equivalence tests and old-vs-new benchmarking.
enum class PartitionDp {
  kDivideAndConquer,  ///< O(max_n * N log N) monotone divide-and-conquer
  kLegacyCubic,       ///< O(max_n * N^2) full-scan reference oracle
};

/// Owns the partition DP's backtracking state: one flat uint32 parent arena
/// (solved layers x N + 1 columns) instead of N materialised ArrayConfigs.
/// Candidates are reconstructed on demand into a caller scratch buffer, so
/// a full EHTR sweep keeps O(N) bytes of candidate state resident where
/// materialising all partitions costs O(N^2) (~400 MB at N = 10k) on top of
/// the arena.
///
/// The table solves lazily: layer j depends only on layer j - 1, so the two
/// live DP value rows are retained and extend_to() appends further layers
/// on demand.  Layers are bit-identical however the solve is split —
/// solving to H then extending to H' equals solving to H' in one shot —
/// which is what lets the warm-started search stop early yet stay
/// bit-identical to the cold sweep.  The parent arena grows with the solved
/// layer count, so a warm pass that stops at H groups keeps H/max_groups of
/// the cold arena footprint.
class PartitionTable {
 public:
  /// Validates inputs and solves the balanced-partition DP for group
  /// counts 1..initial_groups (0 = all max_groups).  Throws
  /// std::invalid_argument on empty/non-finite/negative currents or
  /// max_groups outside [1, N] — same contract as balanced_partitions.
  PartitionTable(const std::vector<double>& mpp_currents,
                 std::size_t max_groups,
                 PartitionDp dp = PartitionDp::kDivideAndConquer,
                 std::size_t initial_groups = 0);

  /// An empty table; assign() inputs before use.
  PartitionTable() = default;

  /// Re-solves in place for new inputs, as the constructor does, reusing
  /// the arena and value rows (no allocation once they have grown).
  void assign(const std::vector<double>& mpp_currents, std::size_t max_groups,
              PartitionDp dp = PartitionDp::kDivideAndConquer,
              std::size_t initial_groups = 0);

  std::size_t num_modules() const { return count_; }
  std::size_t max_groups() const { return max_groups_; }
  /// Group counts 1..solved_groups() are reconstructible right now.
  std::size_t solved_groups() const { return solved_groups_; }

  /// Solves further DP layers until group counts 1..n are available
  /// (clamped to max_groups; no-op when already solved that far).
  void extend_to(std::size_t n);

  /// Writes the optimal n-group partition's group starts into `starts`
  /// (resized to n; capacity is reused across calls).  n must be in
  /// [1, solved_groups()].
  void reconstruct(std::size_t n, std::vector<std::size_t>& starts) const;

  /// Materialises the optimal n-group partition as an ArrayConfig.
  teg::ArrayConfig config(std::size_t n) const;

  /// Calls fn(n, starts) for every solved n in [1, solved_groups()] in
  /// order, reusing one scratch buffer — the streaming replacement for
  /// iterating a materialised candidate vector.
  template <typename Fn>
  void for_each_candidate(Fn&& fn) const {
    std::vector<std::size_t> starts;
    starts.reserve(solved_groups_);
    for (std::size_t n = 1; n <= solved_groups_; ++n) {
      reconstruct(n, starts);
      fn(n, static_cast<const std::vector<std::size_t>&>(starts));
    }
  }

 private:
  void solve_one_layer(std::size_t j);

  std::size_t count_ = 0;
  std::size_t max_groups_ = 0;
  std::size_t solved_groups_ = 0;
  PartitionDp dp_kind_ = PartitionDp::kDivideAndConquer;
  /// Layer-major: parents_[(j - 1) * (count_ + 1) + i] is the best split
  /// point k for dp[j][i] (layer j = one more group than layer j - 1).
  /// Sized for the solved layers only; extend_to() grows it.
  std::vector<std::uint32_t> parents_;
  std::vector<double> prefix_;   ///< current prefix sums (DP cost basis)
  std::vector<double> dp_prev_;  ///< value row of the last solved layer
  std::vector<double> dp_cur_;   ///< scratch value row for the next layer
};

/// Optimal contiguous partitions (by squared group-sum balance) of the MPP
/// currents into every group count 1..max_n.  Element n-1 of the result is
/// the best partition into n groups.  Thin materialising wrapper over
/// PartitionTable (O(N * max_n) memory) for callers that genuinely need
/// every candidate at once; the EHTR hot path streams instead.
std::vector<teg::ArrayConfig> balanced_partitions(
    const std::vector<double>& mpp_currents, std::size_t max_n,
    PartitionDp dp = PartitionDp::kDivideAndConquer);

/// Warm-start request for ehtr_search.  `incumbent_groups` is the seed,
/// scored first (0 = none; the search then seeds from the converter's
/// efficient group-count window), and `width` is how far past the seed the
/// first DP solve reaches.  Purely a performance hint: the certified
/// extension loop guarantees the chosen config is bit-identical to the
/// cold sweep for every setting.  The default 0 stops the first solve at
/// the seed, which the certificate extends as far as it must.
struct EhtrWarmStart {
  bool enabled = false;
  std::size_t incumbent_groups = 0;
  std::size_t width = 0;
};

/// Observability counters for one ehtr_search call (bench + tests).
struct EhtrSearchStats {
  std::size_t max_groups = 0;        ///< full sweep bound after clamping
  std::size_t groups_certified = 0;  ///< group counts solved by the DP
  /// Group counts the golden-section MPPT ran on; the warm pass skips
  /// those whose port's score bound is below the best score seen.
  std::size_t candidates_scored = 0;
  bool warm_used = false;            ///< warm pass engaged (prereqs held)
};

/// Conductance moments of a port snapshot: G = sum 1/r_i, vbar = sum
/// (voc_i / r_i) / G and W = sum (voc_i - vbar)^2 / r_i.  bound(n) is
/// power::OutputPowerBound::at_spread at K = n vbar, R0 = n^2 / G and
/// c = W R0, which holds for every n-group split.
///
/// Rounding: G and the Norton sum add in port order like ArrayEvaluator's
/// prefixes, and W, summed about the computed vbar, can only err high
/// (sum g_i (voc_i - m)^2 = W + G (vbar - m)^2 for every centre m).  A
/// group's prefix difference keeps only the rounding made inside the group,
/// at most u = 2^-53 of the running total per member, so an evaluator port
/// is off by at most (N + n + 8) u rho relative, rho = G / (N min g_i):
/// ~1e-13 at N = 1000, but past the 1e-9 headroom near N = 10^6.  bound()
/// therefore raises K by margin = 8 (N + 8) u rho, c by (1 + margin)^2 and
/// lowers R0 by (1 - margin); the headroom stays with the golden section.
/// The argument is first order, so past margin 1e-6 (a near-open module
/// among ordinary ones) bound() is +inf and prunes nothing.
struct SplitMoments {
  double total_g = 0.0;   ///< G
  double mean_voc = 0.0;  ///< vbar
  double spread = 0.0;    ///< W
  double margin = 0.0;

  /// False when a voc or r is non-finite, an r is <= 0 or G is not finite.
  bool assign(std::span<const teg::LinearSource> ports);
  double bound(const power::OutputPowerBound& b, std::size_t n) const;
};

/// Buffers one search reuses: the DP table, the evaluator, the current and
/// voltage inputs, the score table and one group-start buffer per scoring
/// chunk.  EhtrReconfigurer keeps one as a member, so a steady-state search
/// allocates little beyond its result.
struct EhtrScratch {
  PartitionTable table;
  teg::ArrayEvaluator evaluator;
  std::vector<double> impp;
  std::vector<double> voc_top_prefix;  ///< [n] = sum of the n largest vocs
  std::vector<double> scores;
  std::vector<std::vector<std::size_t>> chunk_starts;
  std::vector<std::size_t> chunk_scored;
};

/// Full EHTR search over a module port snapshot (teg::module_ports or a
/// TegArray): group counts 1..max_groups (0 = all N, values above N clamp
/// to N), charger-aware scoring over a cached ArrayEvaluator.
/// Candidates are streamed out of a PartitionTable and scored in parallel
/// chunks with per-thread scratch (`num_threads` as in util::parallel_for:
/// 0 = hardware, 1 = inline), so only the chosen config is ever
/// materialised — O(N) candidate bytes instead of the old O(N^2) vector.
/// The argmax is a sequential lowest-index scan over the score table, so
/// the result is bit-identical to scoring the materialised candidate list
/// for every thread count; if no candidate scores above the sentinel
/// (e.g. an all-NaN temperature field) the first candidate is returned.
///
/// With `warm.enabled`, the DP is solved only to the incumbent group count
/// (plus `warm.width`) and group counts beyond the frontier are pruned by
/// two provable bounds on any n-group config's score above the best, both
/// power::OutputPowerBound built for the scored best: at() at the relaxed
/// port (Vtop(n), n^2/G), and SplitMoments::bound.  Vtop(n) is the sum of
/// the n largest module open-circuit voltages (each group's voc is a
/// conductance-weighted mean <= its max member) and G the total module
/// conductance (r_string >= n^2/G by AM-HM).  Counts neither bound rules
/// out (ties, NaN) force a DP extension and real scoring; only counts one
/// of them strictly rules out are skipped, so the strict-improvement argmax
/// provably can't land there and the result stays bit-identical to cold
/// search.  Inside the solved
/// range the warm pass scores the incumbent's group count first; each
/// later scoring call then gives -inf to a candidate whose bound at its
/// own port is strictly below the best score folded before the call.  Its
/// true score lies below a score already seen, so the lowest-index argmax
/// cannot land on it, and the floor is fixed per call, so the result does
/// not depend on the thread count.  The cold sweep scores every candidate.
/// Degenerate inputs (non-finite vocs or conductances) disable the warm
/// pass entirely.
teg::ArrayConfig ehtr_search(std::span<const teg::LinearSource> ports,
                             const power::Converter& converter,
                             std::size_t num_threads = 1,
                             PartitionDp dp = PartitionDp::kDivideAndConquer,
                             std::size_t max_groups = 0,
                             const EhtrWarmStart& warm = {},
                             EhtrSearchStats* stats = nullptr);

/// The same search with caller-owned scratch: the per-step path, which
/// reuses the DP arena and scoring buffers across invocations.
teg::ArrayConfig ehtr_search(std::span<const teg::LinearSource> ports,
                             const power::Converter& converter,
                             std::size_t num_threads, PartitionDp dp,
                             std::size_t max_groups, const EhtrWarmStart& warm,
                             EhtrScratch& scratch,
                             EhtrSearchStats* stats = nullptr);

/// Periodic controller wrapping ehtr_search (0.5 s period per [5]).
/// `max_groups` bounds both the candidate sweep and the DP parent arena
/// (0 = no cap); operators of farm-scale arrays use it to trade optimality
/// headroom for memory.  `warm_start` enables the certified warm pass,
/// seeding each invocation with the held config's group count (the first
/// DP solve reaching `warm_width` past it); decisions are bit-identical
/// either way.
/// Production front ends turn it on through SimulationOptions; the default
/// here is the cold full sweep of [2], which the Table I reproduction times
/// and the differential tests use as the oracle.
class EhtrReconfigurer final : public Reconfigurer {
 public:
  EhtrReconfigurer(const teg::DeviceParams& device,
                   const power::ConverterParams& converter,
                   double period_s = 0.5, std::size_t num_threads = 1,
                   std::size_t max_groups = 0, bool warm_start = false,
                   std::size_t warm_width = 0);

  std::string name() const override { return "EHTR"; }
  UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                      double ambient_c) override;
  void reset() override;
  AlgorithmCost algorithm_cost() const override;

  /// Stateless between invocations apart from the (next run time, held
  /// config) pair, so checkpoints round-trip trivially.  The DP is solved
  /// afresh per invocation (in reused buffers) and is bit-identical for
  /// every thread count and warm setting, so the restored decision stream
  /// matches regardless of num_threads or warm_start (the restored config
  /// re-seeds the search exactly as the live run's would have).
  bool supports_checkpoint() const override { return true; }
  std::string checkpoint_state() const override;
  void restore_checkpoint_state(const std::string& state) override;

 private:
  teg::DeviceParams device_;
  power::Converter converter_;
  double period_s_;
  std::size_t num_threads_;
  std::size_t max_groups_;
  bool warm_start_;
  std::size_t warm_width_;
  Held held_;
  // Per-invocation port snapshot and search buffers, reused across steps;
  // never checkpointed.
  std::vector<teg::LinearSource> ports_;
  EhtrScratch scratch_;
};

}  // namespace tegrec::core
