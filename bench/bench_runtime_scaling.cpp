// Runtime and memory scaling of the reconfiguration searches toward
// 10k-module farms.
//
// The paper attributes O(N^3) to EHTR (Sections I/V); this harness times
// the legacy cubic path (full-scan DP + per-candidate port summation over
// module copies), the materialising path (divide-and-conquer DP + a full
// std::vector<ArrayConfig> of candidates scored via ArrayEvaluator — the
// O(N^2)-memory shape the streaming refactor replaced), and the streaming
// path (candidates reconstructed out of a PartitionTable and scored during
// backtrack) across N in {64, 256, 1024, 4096, 10000}, with INOR's O(N)
// search for contrast.  The legacy path is skipped above N = 1024, where
// the cubic DP alone would take minutes.
//
// Each timed search also records its peak RSS (VmHWM, reset per
// measurement via /proc/self/clear_refs where the kernel allows it), so
// the memory trajectory regresses alongside runtime: at N = 10000 the
// materialised candidate vector alone is ~400 MB that the streaming path
// never allocates.
//
// Emits a human table on stdout plus machine-readable CSV and JSON
// (default runtime_scaling.csv / runtime_scaling.json; override with
// --csv PATH / --json PATH, or disable the N = 10000 row with --quick) so
// future PRs have a perf trajectory to regress against.  Unmeasured cells
// are empty in the CSV / null in the JSON; util::parse_csv_cell reads
// them back as NaN.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/ehtr.hpp"
#include "core/inor.hpp"
#include "core/objective.hpp"
#include "switchfab/switch_network.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"
#include "teg/linear_source.hpp"
#include "util/table.hpp"

namespace {

using namespace tegrec;

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

std::vector<double> profile(std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    out[i] = 38.0 * std::exp(-1.9 * x) + 4.0 + 0.7 * std::sin(17.0 * x);
  }
  return out;
}

// The same exhaust shape drifting between control periods (travelling wave
// plus warm-up ramp) — the regime the warm-started search exploits.
std::vector<double> drift_profile(std::size_t n, int step) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    out[i] = 38.0 * std::exp(-1.9 * x) + 4.0 +
             0.7 * std::sin(17.0 * x + 0.3 * step) + 0.4 * step;
  }
  return out;
}

template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Peak RSS (VmHWM) in MB from /proc/self/status, falling back to
// getrusage's monotone high-water mark where /proc is unavailable.
double peak_rss_mb() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
  }
#endif
  return std::nan("");
}

// Resets the kernel's RSS high-water mark so per-measurement peaks are
// meaningful; best-effort (a read-only /proc leaves VmHWM monotone, which
// still bounds each measurement from above).  Freed glibc heap is trimmed
// back to the OS first so one measurement's residue does not become the
// next one's floor.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
#endif
}

// A candidate's port summed directly from copies of its module ports
// (in_parallel per group, in_series over groups): the O(N) per-candidate
// materialisation the legacy search paid before teg::ArrayEvaluator's
// prefix sums.  Built here so the library keeps one scoring path.
teg::LinearSource materialised_port(std::span<const teg::LinearSource> ports,
                                    const teg::ArrayConfig& config) {
  std::vector<teg::LinearSource> groups;
  groups.reserve(config.num_groups());
  for (std::size_t j = 0; j < config.num_groups(); ++j) {
    std::vector<teg::LinearSource> members;
    for (std::size_t i = config.group_begin(j); i < config.group_end(j); ++i) {
      members.push_back(ports[i]);
    }
    groups.push_back(teg::in_parallel(members));
  }
  return teg::in_series(groups);
}

// The pre-optimisation EHTR search: cubic DP, then every candidate scored
// through a materialised port of N module copies.
teg::ArrayConfig legacy_ehtr_search(const teg::TegArray& array,
                                    const power::Converter& converter) {
  const std::vector<teg::ArrayConfig> candidates = core::balanced_partitions(
      array.module_mpp_currents(), array.size(), core::PartitionDp::kLegacyCubic);
  double best_power = -1.0;
  const teg::ArrayConfig* best = &candidates.front();
  for (const teg::ArrayConfig& c : candidates) {
    const double p =
        power::optimal_operating_point(materialised_port(array, c), converter)
            .output_power_w;
    if (p > best_power) {
      best_power = p;
      best = &c;
    }
  }
  return *best;
}

// The intermediate (PR 2) shape: fast DP and cached scoring, but the full
// candidate vector is still materialised — O(N^2) bytes of group starts.
teg::ArrayConfig materialising_ehtr_search(const teg::TegArray& array,
                                           const power::Converter& converter) {
  const std::vector<teg::ArrayConfig> candidates = core::balanced_partitions(
      array.module_mpp_currents(), array.size(),
      core::PartitionDp::kDivideAndConquer);
  const teg::ArrayEvaluator evaluator(array);
  double best_power = -1.0;
  const teg::ArrayConfig* best = &candidates.front();
  for (const teg::ArrayConfig& c : candidates) {
    const double p = core::config_power_w(evaluator, converter, c);
    if (p > best_power) {
      best_power = p;
      best = &c;
    }
  }
  return *best;
}

struct Row {
  std::size_t n = 0;
  double inor_s = 0.0;
  double dc_dp_s = 0.0;
  double new_search_s = 0.0;
  double new_peak_rss_mb = std::nan("");
  double mat_search_s = 0.0;
  double mat_peak_rss_mb = std::nan("");
  double legacy_dp_s = std::nan("");
  double legacy_search_s = std::nan("");
  // Warm-vs-cold over consecutive actuations of a drifting field
  // (per-actuation means; warm carries the incumbent like the controller).
  double cold_step_s = 0.0;
  double warm_step_s = 0.0;
  std::size_t warm_certified = 0;  ///< group counts solved on the last step
  bool warm_identical = false;     ///< warm choices matched cold bit-for-bit
  // Fabric actuation cost: a one-boundary flip vs a full all-parallel <->
  // all-series rebuild — the O(changed) vs O(N) pair.
  double apply_flip_us = 0.0;
  double apply_rebuild_us = 0.0;
  double speedup() const { return legacy_search_s / new_search_s; }
  double warm_speedup() const { return cold_step_s / warm_step_s; }
};

std::string cell(double v, const char* format) {
  if (std::isnan(v)) return std::string();
  char buf[32];
  std::snprintf(buf, sizeof buf, format, v);
  return std::string(buf);
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path = "runtime_scaling.csv";
  std::string json_path = "runtime_scaling.json";
  bool quick = false;
  for (int a = 1; a < argc; ++a) {
    if (!std::strcmp(argv[a], "--csv") && a + 1 < argc) csv_path = argv[++a];
    else if (!std::strcmp(argv[a], "--json") && a + 1 < argc) json_path = argv[++a];
    else if (!std::strcmp(argv[a], "--quick")) quick = true;
  }

  const power::Converter conv(kConv);
  // Legacy above 1024 modules would run for minutes (cubic DP); the new
  // path alone is measured there.
  constexpr std::size_t kLegacyCap = 1024;
  std::vector<std::size_t> sizes{64, 256, 1024, 4096, 10000};
  if (quick) sizes.pop_back();

  std::printf("=== EHTR scaling: runtime and peak RSS, streaming vs "
              "materialising vs legacy ===\n\n");
  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    Row row;
    row.n = n;
    const teg::TegArray array(kDev, profile(n));
    const std::vector<double> impp = array.module_mpp_currents();

    row.inor_s = time_s([&] { core::inor_search(array, conv); });
    row.dc_dp_s = time_s([&] {
      core::PartitionTable table(impp, n, core::PartitionDp::kDivideAndConquer);
    });
    // Streaming first, materialising second: small freed allocations can
    // linger in the heap arena, so the order keeps each measurement's
    // baseline as clean as the allocator allows.
    reset_peak_rss();
    row.new_search_s = time_s([&] { core::ehtr_search(array, conv, 1); });
    row.new_peak_rss_mb = peak_rss_mb();
    reset_peak_rss();
    row.mat_search_s = time_s([&] { materialising_ehtr_search(array, conv); });
    row.mat_peak_rss_mb = peak_rss_mb();
    if (n <= kLegacyCap) {
      row.legacy_dp_s = time_s([&] {
        core::balanced_partitions(impp, n, core::PartitionDp::kLegacyCubic);
      });
      row.legacy_search_s = time_s([&] { legacy_ehtr_search(array, conv); });
    }

    // Warm vs cold across consecutive actuations of a drifting field.  Both
    // paths see the same fields; the warm one seeds each step with the
    // previous step's group count and must stay bit-identical throughout.
    constexpr int kDriftSteps = 4;
    {
      double cold_total = 0.0, warm_total = 0.0;
      std::size_t incumbent = 0;
      bool identical = true;
      core::EhtrSearchStats stats;
      for (int s = 1; s <= kDriftSteps; ++s) {
        const teg::TegArray drifted(kDev, drift_profile(n, s));
        teg::ArrayConfig cold_cfg, warm_cfg;
        cold_total +=
            time_s([&] { cold_cfg = core::ehtr_search(drifted, conv, 1); });
        core::EhtrWarmStart warm;
        warm.enabled = true;
        warm.incumbent_groups = incumbent;
        warm_total += time_s([&] {
          warm_cfg = core::ehtr_search(drifted, conv, 1,
                                       core::PartitionDp::kDivideAndConquer, 0,
                                       warm, &stats);
        });
        identical = identical && warm_cfg == cold_cfg;
        incumbent = warm_cfg.num_groups();
      }
      row.cold_step_s = cold_total / kDriftSteps;
      row.warm_step_s = warm_total / kDriftSteps;
      row.warm_certified = stats.groups_certified;
      row.warm_identical = identical;
    }

    // Fabric actuation: flipping one boundary in a held configuration vs a
    // full all-parallel <-> all-series rebuild.  The flip cost tracks the
    // changed-switch count (flat across N up to the O(groups) boundary
    // merge); the rebuild grows linearly with N.
    {
      const teg::ArrayConfig two({0, n / 2}, n);
      const teg::ArrayConfig three({0, n / 4, n / 2}, n);
      switchfab::SwitchNetwork net(n, two);
      constexpr int kFlipReps = 2000;
      row.apply_flip_us = time_s([&] {
                            for (int i = 0; i < kFlipReps / 2; ++i) {
                              net.apply(three);
                              net.apply(two);
                            }
                          }) /
                          kFlipReps * 1e6;
      const teg::ArrayConfig par = teg::ArrayConfig::all_parallel(n);
      const teg::ArrayConfig ser = teg::ArrayConfig::all_series(n);
      switchfab::SwitchNetwork net2(n, par);
      constexpr int kRebuildReps = 40;
      row.apply_rebuild_us = time_s([&] {
                               for (int i = 0; i < kRebuildReps / 2; ++i) {
                                 net2.apply(ser);
                                 net2.apply(par);
                               }
                             }) /
                             kRebuildReps * 1e6;
    }
    rows.push_back(row);
    std::printf("  N = %5zu done (streaming EHTR %.3f s, peak %.1f MB; "
                "materialising %.3f s, peak %.1f MB)\n",
                n, row.new_search_s, row.new_peak_rss_mb, row.mat_search_s,
                row.mat_peak_rss_mb);
    std::printf("            warm %.3f s/actuation vs cold %.3f (%.1fx, "
                "certified %zu/%zu, bit-identical: %s); apply flip %.2f us "
                "vs rebuild %.2f us\n",
                row.warm_step_s, row.cold_step_s, row.warm_speedup(),
                row.warm_certified, n, row.warm_identical ? "yes" : "NO",
                row.apply_flip_us, row.apply_rebuild_us);
  }

  std::printf("\n");
  util::TextTable table({"N", "INOR (s)", "DP d&c (s)", "EHTR stream (s)",
                         "stream RSS (MB)", "EHTR mat. (s)", "mat. RSS (MB)",
                         "DP legacy (s)", "EHTR legacy (s)", "speedup"});
  for (const Row& r : rows) {
    table.begin_row()
        .add(static_cast<double>(r.n), 0)
        .add(r.inor_s, 5)
        .add(r.dc_dp_s, 5)
        .add(r.new_search_s, 5)
        .add(r.new_peak_rss_mb, 1)
        .add(r.mat_search_s, 5)
        .add(r.mat_peak_rss_mb, 1)
        .add(r.legacy_dp_s, 5)
        .add(r.legacy_search_s, 5)
        .add(r.speedup(), 1);
  }
  std::printf("%s\n", table.render().c_str());

  util::TextTable warm_table({"N", "cold (s/act)", "warm (s/act)",
                              "warm speedup", "certified", "flip (us)",
                              "rebuild (us)"});
  for (const Row& r : rows) {
    warm_table.begin_row()
        .add(static_cast<double>(r.n), 0)
        .add(r.cold_step_s, 5)
        .add(r.warm_step_s, 5)
        .add(r.warm_speedup(), 1)
        .add(static_cast<double>(r.warm_certified), 0)
        .add(r.apply_flip_us, 2)
        .add(r.apply_rebuild_us, 2);
  }
  std::printf("%s\n", warm_table.render().c_str());

  // Unmeasured fields (NaN) become empty CSV cells / JSON nulls so both
  // files stay parseable by strict readers — util::parse_csv_cell reads
  // the empty cells (trailing ones included) back as NaN.
  if (std::FILE* csv = std::fopen(csv_path.c_str(), "w")) {
    std::fprintf(csv,
                 "n,inor_s,dc_dp_s,new_search_s,new_peak_rss_mb,mat_search_s,"
                 "mat_peak_rss_mb,legacy_dp_s,legacy_search_s,speedup,"
                 "cold_step_s,warm_step_s,warm_speedup,warm_certified,"
                 "warm_identical,apply_flip_us,apply_rebuild_us\n");
    for (const Row& r : rows) {
      std::fprintf(csv,
                   "%zu,%.9f,%.9f,%.9f,%s,%.9f,%s,%s,%s,%s,%.9f,%.9f,%.9f,"
                   "%zu,%d,%.9f,%.9f\n",
                   r.n, r.inor_s, r.dc_dp_s, r.new_search_s,
                   cell(r.new_peak_rss_mb, "%.3f").c_str(), r.mat_search_s,
                   cell(r.mat_peak_rss_mb, "%.3f").c_str(),
                   cell(r.legacy_dp_s, "%.9f").c_str(),
                   cell(r.legacy_search_s, "%.9f").c_str(),
                   cell(r.speedup(), "%.9f").c_str(), r.cold_step_s,
                   r.warm_step_s, r.warm_speedup(), r.warm_certified,
                   r.warm_identical ? 1 : 0, r.apply_flip_us,
                   r.apply_rebuild_us);
    }
    std::fclose(csv);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (std::FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      // JSON has no NaN literal; unmeasured fields are null.
      auto num = [](double v) {
        return std::isnan(v) ? std::string("null") : std::to_string(v);
      };
      std::fprintf(json,
                   "  {\"n\": %zu, \"inor_s\": %.9f, \"dc_dp_s\": %.9f, "
                   "\"new_search_s\": %.9f, \"new_peak_rss_mb\": %s, "
                   "\"mat_search_s\": %.9f, \"mat_peak_rss_mb\": %s, "
                   "\"legacy_dp_s\": %s, \"legacy_search_s\": %s, "
                   "\"speedup\": %s, \"cold_step_s\": %.9f, "
                   "\"warm_step_s\": %.9f, \"warm_speedup\": %.9f, "
                   "\"warm_certified\": %zu, \"warm_identical\": %s, "
                   "\"apply_flip_us\": %.9f, \"apply_rebuild_us\": %.9f}%s\n",
                   r.n, r.inor_s, r.dc_dp_s, r.new_search_s,
                   num(r.new_peak_rss_mb).c_str(), r.mat_search_s,
                   num(r.mat_peak_rss_mb).c_str(), num(r.legacy_dp_s).c_str(),
                   num(r.legacy_search_s).c_str(), num(r.speedup()).c_str(),
                   r.cold_step_s, r.warm_step_s, r.warm_speedup(),
                   r.warm_certified, r.warm_identical ? "true" : "false",
                   r.apply_flip_us, r.apply_rebuild_us,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "]\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
