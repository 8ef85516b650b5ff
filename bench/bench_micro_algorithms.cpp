// Micro-benchmarks of the inner kernels: greedy partition, DP partition
// table, configuration evaluation (evaluator build + charger-aware MPP),
// switch-fabric apply, and the predictors' fit/predict at the paper's
// N = 100 scale.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/ehtr.hpp"
#include "core/inor.hpp"
#include "core/objective.hpp"
#include "predict/bpnn.hpp"
#include "predict/mlr.hpp"
#include "predict/svr.hpp"
#include "switchfab/switch_network.hpp"
#include "teg/array.hpp"

namespace {

using namespace tegrec;

constexpr std::size_t kN = 100;
const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

std::vector<double> profile() {
  std::vector<double> out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    out[i] = 36.0 * std::exp(-2.0 * static_cast<double>(i) / kN) + 5.0;
  }
  return out;
}

void BM_GreedyPartition(benchmark::State& state) {
  const teg::TegArray array(kDev, profile());
  const auto impp = array.module_mpp_currents();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::inor_partition(impp, 12));
  }
}
BENCHMARK(BM_GreedyPartition);

void BM_DpPartitionAllN(benchmark::State& state) {
  const teg::TegArray array(kDev, profile());
  const auto impp = array.module_mpp_currents();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::balanced_partitions(impp, kN));
  }
}
BENCHMARK(BM_DpPartitionAllN);

void BM_ConfigEvaluation(benchmark::State& state) {
  const teg::TegArray array(kDev, profile());
  const power::Converter conv(kConv);
  const teg::ArrayConfig config = teg::ArrayConfig::uniform(kN, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::config_power_w(teg::ArrayEvaluator(array), conv, config));
  }
}
BENCHMARK(BM_ConfigEvaluation);

void BM_SwitchFabricApply(benchmark::State& state) {
  const teg::ArrayConfig a = teg::ArrayConfig::uniform(kN, 10);
  const teg::ArrayConfig b = teg::ArrayConfig::uniform(kN, 13);
  switchfab::SwitchNetwork net(kN, teg::ArrayConfig::all_parallel(kN));
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.apply(flip ? a : b));
    flip = !flip;
  }
}
BENCHMARK(BM_SwitchFabricApply);

predict::TemperatureHistory history_100() {
  predict::TemperatureHistory h(kN, 30);
  const auto base = profile();
  for (int t = 0; t < 30; ++t) {
    std::vector<double> row = base;
    for (auto& x : row) x += 25.0 + 0.02 * t;
    h.push(row);
  }
  return h;
}

void BM_MlrFit(benchmark::State& state) {
  const auto h = history_100();
  predict::MlrPredictor mlr;
  for (auto _ : state) {
    mlr.fit(h);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MlrFit);

void BM_BpnnFit(benchmark::State& state) {
  const auto h = history_100();
  predict::BpnnParams p;
  p.epochs = 8;
  p.module_stride = 5;
  predict::BpnnPredictor nn(p);
  for (auto _ : state) {
    nn.fit(h);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BpnnFit);

void BM_SvrFit(benchmark::State& state) {
  const auto h = history_100();
  predict::SvrParams p;
  p.iterations = 120;
  p.module_stride = 5;
  predict::SvrPredictor svr(p);
  for (auto _ : state) {
    svr.fit(h);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SvrFit);

void BM_PredictNext(benchmark::State& state) {
  const auto h = history_100();
  predict::MlrPredictor mlr;
  mlr.fit(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlr.predict_next(h));
  }
}
BENCHMARK(BM_PredictNext);

}  // namespace
