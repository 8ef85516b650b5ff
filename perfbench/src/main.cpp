// tegbench: measures one workload and prints every metric it took as one
// JSON line (see perfbench/README.md).  Usually started through
// perfbench/run.py, which builds it and keeps the metrics BENCHMARK.json
// names.
//
//   tegbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "teg/array_evaluator.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace tegbench;

std::string filesystem_type(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buffer;
    }
  }
}

int usage_error(const std::string& message) {
  std::fprintf(stderr,
               "tegbench: %s\nusage: tegbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        ctx.workload = value;
      } else if (key == "--seed") {
        ctx.seed = tegrec::util::parse_u64(value);
      } else if (key == "--seconds") {
        ctx.seconds = tegrec::util::parse_double(value);
      } else if (key == "--trace") {
        ctx.trace = value == "1";
      } else if (key == "--scratch") {
        ctx.scratch_dir = value;
      } else {
        return usage_error("unknown flag " + key);
      }
    } catch (const std::exception& e) {
      return usage_error("bad value for " + key + ": " + e.what());
    }
  }
  if (argc % 2 == 0) return usage_error("every flag takes one value");
  if (ctx.scratch_dir.empty()) return usage_error("--scratch is required");
  std::filesystem::create_directories(ctx.scratch_dir);

  Outcome out;
  out.notes.push_back("host: nproc " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", compiler gcc " + __VERSION__ + ", build " +
                      TEGBENCH_BUILD_TYPE + ", avx2 scoring " +
                      (tegrec::teg::ArrayEvaluator::simd_available() ? "yes" : "no") +
                      ", checkpoint fs " + filesystem_type(ctx.scratch_dir));
  try {
    if (ctx.workload == "stream_ckpt_hour") {
      run_stream_ckpt_hour(ctx, out);
    } else if (ctx.workload == "stream_kilo") {
      run_stream_kilo(ctx, out);
    } else if (ctx.workload == "batch_montecarlo") {
      run_batch_montecarlo(ctx, out);
    } else {
      return usage_error("unknown workload '" + ctx.workload + "'");
    }
  } catch (const std::exception& e) {
    out.mismatches.push_back(std::string("aborted: ") + e.what());
    ++out.failed;
  }
  out.set("failed_frac",
          out.attempted == 0 ? 0.0
                             : static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted),
          "ratio");

  namespace json = tegrec::util::json;
  json::Object metrics;
  for (const auto& [name, metric] : out.metrics) {
    metrics.emplace_back(name, json::Object{{"value", metric.value},
                                            {"unit", metric.unit}});
  }
  json::Array notes(out.notes.begin(), out.notes.end());
  json::Array mismatches(out.mismatches.begin(), out.mismatches.end());
  json::Object result;
  result.emplace_back("correct", out.mismatches.empty());
  result.emplace_back("attempted", out.attempted);
  result.emplace_back("failed", out.failed);
  result.emplace_back("metrics", std::move(metrics));
  result.emplace_back("notes", std::move(notes));
  result.emplace_back("mismatches", std::move(mismatches));
  std::printf("%s\n", json::dump(json::Value(std::move(result))).c_str());
  return out.mismatches.empty() ? 0 : 1;
}
