#include "core/inor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/objective.hpp"
#include "core/state_codec.hpp"
#include "power/mppt.hpp"

namespace tegrec::core {

namespace {

// prefix[i] = sum of the first i MPP currents, in module order.  Zero
// currents (stone-cold modules) are legal; negatives are not.
template <typename CurrentAt>
void build_prefix(std::size_t count, CurrentAt current_at,
                  std::vector<double>& prefix) {
  prefix.resize(count + 1);
  prefix[0] = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double current = current_at(i);
    if (current < 0.0) {
      throw std::invalid_argument("inor_partition: negative MPP current");
    }
    prefix[i + 1] = prefix[i] + current;
  }
}

// Writes the greedy n-group partition over `prefix` (count + 1 entries,
// 1 <= n <= count) into `starts`.
void partition_starts(std::span<const double> prefix, std::size_t n,
                      std::vector<std::size_t>& starts) {
  const std::size_t count = prefix.size() - 1;
  starts.clear();
  if (prefix[count] <= 0.0) {
    // Dead array: any balanced partition is as good as any other.  These
    // are ArrayConfig::uniform(count, n)'s starts, distinct for n <= count.
    for (std::size_t j = 0; j < n; ++j) starts.push_back(j * count / n);
    return;
  }
  const double i_ideal = prefix[count] / static_cast<double>(n);

  starts.push_back(0);
  std::size_t boundary = 0;  // end (exclusive) of the previous group
  std::size_t guess = count / n;  // length of the group before boundary
  for (std::size_t j = 1; j < n; ++j) {
    // Group j-1 spans [boundary, g); f(g) is its sum's deviation from
    // Iideal.  f never decreases as g grows: the prefix sums non-negative
    // currents and every rounding step is monotone.  So f(g) <= 0 holds on
    // a leading run of g (also when an infinite or NaN current makes the
    // later f NaN, which compares false), and along that run |f| never
    // grows, so the paper's walk (advance while |f(g+1)| <= |f(g)|) would
    // step through all of it.  Find the run's last g instead, then finish
    // with the walk itself, which takes the crossing and any zero-current
    // run after.  Balanced groups have similar lengths, so the search
    // first probes the previous group's length (count / n for the first)
    // and gallops from there in whichever direction the probe points.
    const double base = prefix[boundary];
    const auto below = [&](std::size_t h) {
      return prefix[h] - base - i_ideal <= 0.0;
    };
    const std::size_t g_min = boundary + 1;     // one module per group
    const std::size_t g_max = count - (n - j);  // one module per later group
    const std::size_t probe = std::clamp(boundary + guess, g_min, g_max);
    // Bracket the run's end: below(lo) holds (or lo = g_min and nothing
    // holds), and hi is the first g failing it (or g_max + 1).
    std::size_t lo = g_min;
    std::size_t hi = g_max + 1;
    if (below(probe)) {
      lo = probe;
      for (std::size_t step = 1; lo + step < hi; step *= 2) {
        if (!below(lo + step)) {
          hi = lo + step;
          break;
        }
        lo += step;
      }
    } else {
      hi = probe;
      for (std::size_t step = 1; hi > g_min; step *= 2) {
        const std::size_t h = hi - std::min(step, hi - g_min);
        if (below(h)) {
          lo = h;
          break;
        }
        hi = h;
      }
    }
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (below(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    std::size_t g = lo;
    const auto f = [&](std::size_t h) { return prefix[h] - base - i_ideal; };
    while (g < g_max && std::abs(f(g + 1)) <= std::abs(f(g))) ++g;
    starts.push_back(g);
    guess = g - boundary;
    boundary = g;
  }
}

}  // namespace

teg::ArrayConfig inor_partition(const std::vector<double>& mpp_currents,
                                std::size_t n) {
  const std::size_t count = mpp_currents.size();
  if (n == 0 || n > count) {
    throw std::invalid_argument("inor_partition: bad group count");
  }
  std::vector<double> prefix;
  build_prefix(
      count, [&](std::size_t i) { return mpp_currents[i]; }, prefix);
  std::vector<std::size_t> starts;
  partition_starts(prefix, n, starts);
  return teg::ArrayConfig(std::move(starts), count);
}

teg::ArrayConfig inor_search(std::span<const teg::LinearSource> ports,
                             const power::Converter& converter,
                             const InorOptions& options) {
  const teg::ArrayEvaluator evaluator(ports);
  InorScratch scratch;
  return inor_search(ports, evaluator, converter, options, scratch);
}

teg::ArrayConfig inor_search(std::span<const teg::LinearSource> ports,
                             const teg::ArrayEvaluator& evaluator,
                             const power::Converter& converter,
                             const InorOptions& options, InorScratch& scratch) {
  if (evaluator.size() != ports.size()) {
    throw std::invalid_argument("inor_search: evaluator/ports size mismatch");
  }
  std::size_t nmin = options.nmin;
  std::size_t nmax = options.nmax;
  if (nmin == 0 && nmax == 0) {
    const auto window = group_count_window(ports, converter);
    nmin = window.nmin;
    nmax = window.nmax;
  }
  if (nmin == 0 || nmax < nmin || nmax > ports.size()) {
    throw std::invalid_argument("inor_search: bad n window");
  }

  build_prefix(
      ports.size(), [&](std::size_t i) { return ports[i].mpp_current_a(); },
      scratch.prefix);
  // Room for the largest possible candidate, so a window that widens from
  // one step to the next never reallocates.
  scratch.candidate.reserve(ports.size());
  scratch.best.reserve(ports.size());
  double best_power = -1.0;
  bool found = false;
  power::OutputPowerBound bound(converter, best_power);
  scratch.scored = 0;
  for (std::size_t n = nmin; n <= nmax; ++n) {
    partition_starts(scratch.prefix, n, scratch.candidate);
    const teg::LinearSource port = evaluator.string_equivalent(
        std::span<const std::size_t>(scratch.candidate));
    // A candidate whose certified bound is strictly below the best score
    // cannot strictly beat it, so the golden section is skipped; a NaN
    // bound compares false and the candidate is scored.
    if (found && bound.at(port.voc_v, port.r_ohm) < best_power) continue;
    // config_power_w's own steps, on the port already in hand.
    const double p = power::optimal_operating_point(port, converter).output_power_w;
    ++scratch.scored;
    if (p > best_power) {
      best_power = p;
      std::swap(scratch.candidate, scratch.best);
      found = true;
      bound = power::OutputPowerBound(converter, best_power);
    }
  }
  // Every candidate scoring NaN leaves no winner: the empty config, as the
  // historical search returned.
  if (!found) return teg::ArrayConfig();
  return teg::ArrayConfig(scratch.best, ports.size());
}

InorReconfigurer::InorReconfigurer(const teg::DeviceParams& device,
                                   const power::ConverterParams& converter,
                                   double period_s, const InorOptions& options)
    : device_(device), converter_(converter), period_s_(period_s),
      options_(options) {
  if (period_s <= 0.0) throw std::invalid_argument("InorReconfigurer: period <= 0");
}

UpdateResult InorReconfigurer::update(double time_s,
                                      const std::vector<double>& delta_t_k,
                                      double ambient_c) {
  if (held_.holding(time_s)) return held_.hold();  // between periods
  teg::module_ports(device_, delta_t_k, ambient_c, ports_);
  evaluator_.assign(ports_);
  return held_.decide(
      inor_search(ports_, evaluator_, converter_, options_, scratch_),
      /*adopt=*/true, /*always_actuate=*/true, time_s + period_s_);
}

void InorReconfigurer::reset() { held_ = Held(); }

std::string InorReconfigurer::checkpoint_state() const {
  return detail::encode_state("inor-v1", held_);
}

void InorReconfigurer::restore_checkpoint_state(const std::string& state) {
  held_ = detail::decode_state<Held>("inor-v1", state);
}

}  // namespace tegrec::core
