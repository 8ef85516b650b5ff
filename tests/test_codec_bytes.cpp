// Codec byte pins: the exact bytes of every text encoding the library
// writes for itself, pinned by 128-bit digest.
//
// Each case renders one artifact — a mid-stream checkpoint per scheme, a
// result-cache artifact per experiment kind, every controller's state
// blob, the stream configuration stamp and the canonical text of every
// example spec — and hashes it with the dual-basis FNV-1a the spec
// fingerprints use (util::hash).  No artifact holds measured time, so
// every byte is a pure function of the inputs, unscrubbed.  The expected
// digests are literals recorded from the implementation before the codecs
// were folded onto one field binder and one run-table reader, so any
// change to a single byte of any artifact fails here.  The stamps, the
// checkpoints and result artifacts that embed a stamp or fingerprint text,
// and the example spec texts were re-recorded once since, when EHTR's
// warm-start knobs became execution hints (spec schema v4); the only lines
// that changed were the schema number and those two keys.  The
// checkpoints and the comparison artifact were re-recorded once more when
// measured time left the library (checkpoint schema v2): the only lines
// that changed were the checkpoint magic, the head's total_compute_s key
// and the three run-table columns of measured time.  The DNOR blob and
// checkpoint were re-recorded once more when DNOR's blob moved to the
// periodic controllers' held-decision binding (tag dnor-v2): the only
// lines that changed were the tag, the clock's key (next_decision_time_s
// became next_run_time_s), the dropped decisions and switches counters,
// and the checkpoint's controller line count.
//
// To print the table for a deliberate, reviewed format change, run the
// binary with TEGREC_PRINT_DIGESTS=1 and paste its output over kExpected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/result_io.hpp"
#include "sim/spec.hpp"
#include "sim/stepper.hpp"
#include "thermal/trace.hpp"
#include "util/hash.hpp"

namespace tegrec::sim {
namespace {

// clang-format off
const std::map<std::string, std::string> kExpected = {
    {"stamp.dnor", "fb33752405ea85f0b6b97925bb7310bf"},
    {"blob.fresh.dnor", "7041f6b351478991041d02dc5844a4e0"},
    {"blob.stepped.dnor", "22e26169d394cc05f8132f700a3fd018"},
    {"checkpoint.dnor", "9449be4fe98af94974da0c4b2dcf07dc"},
    {"stamp.inor", "95fd0a3f5ced877ff0e64cf23ec8c130"},
    {"blob.fresh.inor", "ccf5686e33ad1e79eca0cbc6f6a83694"},
    {"blob.stepped.inor", "8c959465adf8101ca4d2acf4647bb0c7"},
    {"checkpoint.inor", "90bc4cf6d20b4faa4b8b7f44064c54e9"},
    {"stamp.ehtr", "ab593fccdb7d5514ed6376b84df255cf"},
    {"blob.fresh.ehtr", "1bf0709e25ee56eec0102eb10937deb3"},
    {"blob.stepped.ehtr", "5d5929f1e76a33fce8b29c7e23eb183b"},
    {"checkpoint.ehtr", "06221d50f75de1d28d9fa85cc93c336d"},
    {"stamp.baseline", "2242f57631cc1ba4b4de51f224822f93"},
    {"blob.fresh.baseline", "70cba7a041f8aff46161bc9a98a8468b"},
    {"blob.stepped.baseline", "70cf01a041fb7eb9615e5a9a98a56a2e"},
    {"checkpoint.baseline", "530ae5776788d2495db3698f56238ea6"},
    {"stamp.odd", "a4e2a50ef1f01959ea2e21931c122d0a"},
    {"checkpoint.edge", "5295541a79819858beca359ac5f501b7"},
    {"result.comparison", "855948254d8a80f7c8d3a2d47d8ac4dc"},
    {"result.montecarlo", "1eb986f36d29d0e317c915cf389dda86"},
    {"result.sweep", "7726c173d43669fc54778156cf432f41"},
    {"spec.boiler_batch", "dca971d077d81e7b1e3e57f93bf316d4"},
    {"spec_fingerprint_text.boiler_batch", "bd60a4269cb67b505016799b786b0137"},
    {"spec.comparison_small", "7a22ebdb92f105e273130b88142938ff"},
    {"spec_fingerprint_text.comparison_small", "cc218d27e4f17dad5e67e898cfddf364"},
    {"spec.montecarlo_stop_start", "99666f4fcfeedc6fb79886fec02aa75a"},
    {"spec_fingerprint_text.montecarlo_stop_start", "45ccee2e6fa4cf46cb2d68e4ba3b39df"},
    {"spec.montecarlo_urban", "a568952bc7cd013ed872468e25f26063"},
    {"spec_fingerprint_text.montecarlo_urban", "505988e1d3ced7cbbbde16056f922712"},
    {"spec.sweep_coupling", "988376637938b6daeb9324f5e1d1d1f5"},
    {"spec_fingerprint_text.sweep_coupling", "c07fcfe658690e676db2d0bb922e170a"},
};
// clang-format on

std::string digest128(const std::string& text) {
  return util::hex64(util::fnv1a64(text, util::kFnv1aOffsetBasis)) +
         util::hex64(util::fnv1a64(text, util::kFnv1aAltBasis));
}

/// Collects (case, digest) pairs and checks them against kExpected, or
/// prints the table under TEGREC_PRINT_DIGESTS.
class Pins {
 public:
  void add(const std::string& name, const std::string& text) {
    digests_.emplace_back(name, digest128(text));
  }

  void check() const {
    if (std::getenv("TEGREC_PRINT_DIGESTS") != nullptr) {
      for (const auto& [name, digest] : digests_) {
        std::printf("    {\"%s\", \"%s\"},\n", name.c_str(), digest.c_str());
      }
    }
    for (const auto& [name, digest] : digests_) {
      const auto it = kExpected.find(name);
      if (it == kExpected.end()) {
        ADD_FAILURE() << "no pinned digest for " << name;
        continue;
      }
      EXPECT_EQ(digest, it->second) << name;
    }
  }

 private:
  std::vector<std::pair<std::string, std::string>> digests_;
};

thermal::TemperatureTrace stream_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 12;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 40.0, 32.0, 0.0}};
  config.seed = 5;
  return thermal::generate_trace(config);
}

StreamConfig stream_config(StreamScheme scheme,
                           const thermal::TemperatureTrace& trace) {
  StreamConfig config;
  config.scheme = scheme;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim.num_threads = 1;
  return config;
}

const StreamScheme kSchemes[] = {StreamScheme::kDnor, StreamScheme::kInor,
                                 StreamScheme::kEhtr, StreamScheme::kBaseline};

TEST(CodecBytes, CheckpointsControllerBlobsAndStamps) {
  const thermal::TemperatureTrace trace = stream_trace();
  // Past DNOR's 30-sample history, so its blob carries predicted rows.
  const std::size_t steps = std::min<std::size_t>(60, trace.num_steps());
  Pins pins;
  for (const StreamScheme scheme : kSchemes) {
    const std::string name = stream_scheme_name(scheme);
    const StreamConfig config = stream_config(scheme, trace);
    const std::string stamp = stream_config_fingerprint_text(config);
    pins.add("stamp." + name, stamp);

    std::unique_ptr<core::Reconfigurer> controller =
        make_stream_controller(config);
    pins.add("blob.fresh." + name, controller->checkpoint_state());
    SimStepper stepper(*controller, config.dt_s, config.num_modules,
                       config.sim);
    std::vector<std::string> log;
    for (std::size_t t = 0; t < steps; ++t) {
      TraceSample sample;
      sample.time_s = static_cast<double>(t) * trace.dt_s();
      sample.module_temps_c = trace.step_temperatures(t);
      sample.ambient_c = trace.ambient_c(t);
      const StepRecord rec = stepper.step(sample);
      if (rec.switched) {
        log.push_back(R"({"event":"decision","step":)" + std::to_string(t) +
                      "}");
      }
    }
    log.push_back(R"({"event":"gap","detail":"a, b = c"})");
    pins.add("blob.stepped." + name, controller->checkpoint_state());

    pins.add("checkpoint." + name,
             encode_checkpoint(stepper.state(), stamp, log));
  }

  // Non-default stamp fields and awkward doubles.  The warm-start knobs
  // are not spec fields: off their defaults here, and absent from the stamp.
  StreamConfig odd = stream_config(StreamScheme::kEhtr, trace);
  odd.control_period_s = 0.1;
  odd.dt_s = 1.0 / 3.0;
  odd.num_modules = 1000;
  odd.sim.ehtr_warm_start = false;
  odd.sim.ehtr_warm_width = 3;
  odd.sim.device.seebeck_v_k_couple = 1e-300;
  pins.add("stamp.odd", stream_config_fingerprint_text(odd));

  // A hand-built state: empty and edge-valued cells, no controller blob.
  StepperState edge;
  edge.steps_consumed = 3;
  edge.has_fabric = true;
  edge.fabric_group_starts = {0, 4, 9};
  edge.battery_soc = -0.0;
  edge.battery_energy_j = std::numeric_limits<double>::max();
  edge.partial.algorithm = "edge";
  edge.partial.energy_output_j = 0.1;
  edge.partial.ideal_energy_j = std::numeric_limits<double>::denorm_min();
  edge.partial.num_invocations = 2;
  edge.partial.num_switch_events = 1;
  edge.partial.total_switch_actuations = 9007199254740992ULL;  // 2^53
  edge.partial.final_soc = 1.0 / 3.0;
  for (std::size_t i = 0; i < 3; ++i) {
    StepRecord s;
    s.time_s = 0.5 * static_cast<double>(i);
    s.gross_power_w = i == 1 ? std::numeric_limits<double>::quiet_NaN() : 1e22;
    s.net_power_w = -1.5e-7;
    s.invoked = i != 0;
    s.switched = i == 2;
    s.switch_actuations = 3 * i;
    edge.partial.steps.push_back(s);
  }
  pins.add("checkpoint.edge",
           encode_checkpoint(edge, stream_config_fingerprint_text(odd), {""}));
  pins.check();
}

thermal::TraceGeneratorConfig tiny_config() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 24;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 25.0, 30.0, 0.0}};
  config.seed = 3;
  return config;
}

TEST(CodecBytes, ResultArtifacts) {
  ExperimentSpec comparison;
  comparison.kind = ExperimentKind::kComparison;
  comparison.trace.kind = TraceSource::Kind::kGenerated;
  comparison.trace.generator = tiny_config();
  comparison.comparison.sim.num_threads = 1;

  ExperimentSpec montecarlo = comparison;
  montecarlo.kind = ExperimentKind::kMonteCarlo;
  montecarlo.comparison.include_inor = false;
  montecarlo.comparison.include_ehtr = false;
  montecarlo.mc_num_seeds = 3;
  montecarlo.mc_first_seed = 0x1234567890ULL;  // seed_hi is non-zero
  montecarlo.mc_num_threads = 1;

  ExperimentSpec sweep = montecarlo;
  sweep.kind = ExperimentKind::kSweep;
  sweep.sweep_parameter_name = "surface_coupling";
  sweep.sweep_values = {0.6, 0.75, 0.9};
  sweep.sweep_num_threads = 1;

  Pins pins;
  for (const auto& [name, spec] :
       {std::pair<const char*, const ExperimentSpec&>{"comparison", comparison},
        {"montecarlo", montecarlo},
        {"sweep", sweep}}) {
    pins.add(std::string("result.") + name,
             encode_result(run_experiment(spec), spec.fingerprint_text()));
  }
  pins.check();
}

// Results and checkpoints hold no measured time, so running the same spec
// twice writes the same bytes, with nothing scrubbed: a batch result
// artifact, and every scheme's mid-stream checkpoint at the same step.
TEST(CodecBytes, RerunsAreByteIdentical) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kComparison;
  spec.trace.kind = TraceSource::Kind::kGenerated;
  spec.trace.generator = tiny_config();
  spec.comparison.sim.num_threads = 1;
  EXPECT_EQ(encode_result(run_experiment(spec), spec.fingerprint_text()),
            encode_result(run_experiment(spec), spec.fingerprint_text()));

  const thermal::TemperatureTrace trace = stream_trace();
  const std::size_t steps = std::min<std::size_t>(40, trace.num_steps());
  for (const StreamScheme scheme : kSchemes) {
    const StreamConfig config = stream_config(scheme, trace);
    const std::string stamp = stream_config_fingerprint_text(config);
    const auto checkpoint = [&] {
      std::unique_ptr<core::Reconfigurer> controller =
          make_stream_controller(config);
      SimStepper stepper(*controller, config.dt_s, config.num_modules,
                         config.sim);
      for (std::size_t t = 0; t < steps; ++t) {
        stepper.step(TraceSample{static_cast<double>(t) * trace.dt_s(),
                                 trace.step_temperatures(t),
                                 trace.ambient_c(t)});
      }
      return encode_checkpoint(stepper.state(), stamp);
    };
    EXPECT_EQ(checkpoint(), checkpoint()) << stream_scheme_name(scheme);
  }
}

TEST(CodecBytes, ExampleSpecsCanonicalText) {
  const std::filesystem::path dir =
      std::filesystem::path(TEGREC_SOURCE_DIR) / "examples" / "specs";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".spec") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  Pins pins;
  for (const auto& path : files) {
    const ExperimentSpec spec = ExperimentSpec::from_file(path.string());
    const std::string stem = path.stem().string();
    pins.add("spec." + stem, spec.canonical_text());
    pins.add("spec_fingerprint_text." + stem, spec.fingerprint_text());
  }
  pins.check();
}

}  // namespace
}  // namespace tegrec::sim
