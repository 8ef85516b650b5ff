// Decision-digest regression suite: every controller's full decision and
// power stream, pinned bit for bit.
//
// Each case runs one scheme through a SimStepper over a shortened named
// scenario and hashes (FNV-1a 64) the bit pattern of every StepRecord
// field plus the final group starts.  The expected digests are literals
// recorded from the implementation before the O(N) controller paths
// (in-place module ports, galloping INOR, fused MLR normal equations)
// landed, so any change to a decision, an actuation count or a single
// power bit fails here.  The EHTR
// rows, 1,000 modules included, were recorded from the cold full-sweep
// search, so a default that runs the certified warm search must reproduce
// them bit for bit.
//
// To print the table for a deliberate, reviewed behaviour change, run the
// binary with TEGREC_PRINT_DIGESTS=1 and paste its output over kExpected.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scenario_fixtures.hpp"
#include "sim/checkpoint.hpp"
#include "sim/stepper.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"
#include "util/hash.hpp"

namespace tegrec::sim {
namespace {

/// Scenario time compressed to this many seconds (180 steps at 0.5 s):
/// long enough for DNOR's 30-step history to fill and make predicted
/// switch-or-hold decisions, short enough for 1,000-module runs.
constexpr double kDurationS = 90.0;

struct Expected {
  const char* scenario;
  std::uint64_t seed;
  std::size_t modules;
  const char* scheme;
  std::uint64_t digest;
};

// clang-format off
const Expected kExpected[] = {
    {"alpine_climb", 1, 16, "dnor", 0x97f545d5dea31adeULL},
    {"alpine_climb", 1, 16, "inor", 0x0ca70700fca68047ULL},
    {"alpine_climb", 1, 16, "baseline", 0x8cb4cb0d5aeb7fa6ULL},
    {"alpine_climb", 1, 16, "ehtr", 0xc5fdfaad9fdf4c5aULL},
    {"alpine_climb", 1, 64, "dnor", 0x86674f86847e12e2ULL},
    {"alpine_climb", 1, 64, "inor", 0xe9d84a1a64bee3aaULL},
    {"alpine_climb", 1, 64, "baseline", 0xcdc0e4ed6178be85ULL},
    {"alpine_climb", 1, 64, "ehtr", 0x2fb9e01372e01b83ULL},
    {"alpine_climb", 1, 1000, "dnor", 0x9376aeb7a8b37e6dULL},
    {"alpine_climb", 1, 1000, "inor", 0x7f4ef9d164ae6e6bULL},
    {"alpine_climb", 1, 1000, "baseline", 0x15978a9146ec1339ULL},
    {"alpine_climb", 1, 1000, "ehtr", 0xc7fdbc907d1b389aULL},
    {"alpine_climb", 2, 16, "dnor", 0x870a2d51d451937cULL},
    {"alpine_climb", 2, 16, "inor", 0xb09ba66a5304dc99ULL},
    {"alpine_climb", 2, 16, "baseline", 0xf2943f9eeb749581ULL},
    {"alpine_climb", 2, 16, "ehtr", 0x555ab8366da9f946ULL},
    {"alpine_climb", 2, 64, "dnor", 0x7fdbb87efe57e373ULL},
    {"alpine_climb", 2, 64, "inor", 0x6d0312de2c0c0a3eULL},
    {"alpine_climb", 2, 64, "baseline", 0xece75e7dd454630cULL},
    {"alpine_climb", 2, 64, "ehtr", 0xb1d30b7c217870fcULL},
    {"alpine_climb", 2, 1000, "dnor", 0xf160a0af33e14a29ULL},
    {"alpine_climb", 2, 1000, "inor", 0x507fa6912121b822ULL},
    {"alpine_climb", 2, 1000, "baseline", 0xa70d467570cab8a8ULL},
    {"alpine_climb", 2, 1000, "ehtr", 0x027d65edc3414563ULL},
    {"alpine_climb", 3, 16, "dnor", 0xf0ab15b9b25555c1ULL},
    {"alpine_climb", 3, 16, "inor", 0xfbb77e8de7566b90ULL},
    {"alpine_climb", 3, 16, "baseline", 0xfebaf0ab65ba349eULL},
    {"alpine_climb", 3, 16, "ehtr", 0xaaa335e999943b35ULL},
    {"alpine_climb", 3, 64, "dnor", 0x9ace972726ba9e9cULL},
    {"alpine_climb", 3, 64, "inor", 0x4c23d32c59307790ULL},
    {"alpine_climb", 3, 64, "baseline", 0x6406a38809a35c0bULL},
    {"alpine_climb", 3, 64, "ehtr", 0x9766abd50879dc42ULL},
    {"alpine_climb", 3, 1000, "dnor", 0x7ef258c78b9e4d0bULL},
    {"alpine_climb", 3, 1000, "inor", 0x6a80c9e41ec5095bULL},
    {"alpine_climb", 3, 1000, "baseline", 0x1339abbbd5260aa5ULL},
    {"alpine_climb", 3, 1000, "ehtr", 0x68033f104cb3b8adULL},
    {"boiler_economiser", 1, 16, "dnor", 0x111f3aeade16dd8dULL},
    {"boiler_economiser", 1, 16, "inor", 0xc81730370e2e85d2ULL},
    {"boiler_economiser", 1, 16, "baseline", 0xa1b23312611815dcULL},
    {"boiler_economiser", 1, 16, "ehtr", 0x51e84aa5f762dfe8ULL},
    {"boiler_economiser", 1, 64, "dnor", 0x8476691340309227ULL},
    {"boiler_economiser", 1, 64, "inor", 0x0baf31d9e0af773eULL},
    {"boiler_economiser", 1, 64, "baseline", 0x779ca15c07256092ULL},
    {"boiler_economiser", 1, 64, "ehtr", 0xaf11113dcde5340cULL},
    {"boiler_economiser", 1, 1000, "dnor", 0x5b3c9277fa31b361ULL},
    {"boiler_economiser", 1, 1000, "inor", 0x04ad1a2f3937fb84ULL},
    {"boiler_economiser", 1, 1000, "baseline", 0xe09a957d2a2358e9ULL},
    {"boiler_economiser", 1, 1000, "ehtr", 0x2e047c000bf288eaULL},
    {"boiler_economiser", 2, 16, "dnor", 0x3fdbeec17a09244aULL},
    {"boiler_economiser", 2, 16, "inor", 0x50d9df0d446a15d0ULL},
    {"boiler_economiser", 2, 16, "baseline", 0x3183e98cd81c68c7ULL},
    {"boiler_economiser", 2, 16, "ehtr", 0x3597247e41fa9bb7ULL},
    {"boiler_economiser", 2, 64, "dnor", 0xbf2e6a5aa6e0faa5ULL},
    {"boiler_economiser", 2, 64, "inor", 0xae038a7f174d90a7ULL},
    {"boiler_economiser", 2, 64, "baseline", 0x3d290417838f00f9ULL},
    {"boiler_economiser", 2, 64, "ehtr", 0x678f9301cf9cadc5ULL},
    {"boiler_economiser", 2, 1000, "dnor", 0x17cbb8236e36126fULL},
    {"boiler_economiser", 2, 1000, "inor", 0xe040c03d78ac1bcbULL},
    {"boiler_economiser", 2, 1000, "baseline", 0x57b025d911ebc6f0ULL},
    {"boiler_economiser", 2, 1000, "ehtr", 0x2baafeb8aa9cb8a2ULL},
    {"boiler_economiser", 3, 16, "dnor", 0x992aac3cd2d2d0d7ULL},
    {"boiler_economiser", 3, 16, "inor", 0x93c8d31b2cf42e58ULL},
    {"boiler_economiser", 3, 16, "baseline", 0x667b71268cbf9622ULL},
    {"boiler_economiser", 3, 16, "ehtr", 0xc1627d4e014860a5ULL},
    {"boiler_economiser", 3, 64, "dnor", 0x985a74be85506374ULL},
    {"boiler_economiser", 3, 64, "inor", 0x8593a239d97fa3d0ULL},
    {"boiler_economiser", 3, 64, "baseline", 0x757357fee014bda1ULL},
    {"boiler_economiser", 3, 64, "ehtr", 0xd74d21ad89132ee7ULL},
    {"boiler_economiser", 3, 1000, "dnor", 0x3c430b2d56ad898bULL},
    {"boiler_economiser", 3, 1000, "inor", 0x62e46773d3cb7044ULL},
    {"boiler_economiser", 3, 1000, "baseline", 0x41f89be4aee4c3f0ULL},
    {"boiler_economiser", 3, 1000, "ehtr", 0xfd9fbf78fbe8e508ULL},
    {"kiln_batch", 1, 16, "dnor", 0x6d241d99e05721f2ULL},
    {"kiln_batch", 1, 16, "inor", 0x31f7e6169176dfcdULL},
    {"kiln_batch", 1, 16, "baseline", 0x71d0209d4c9ea53dULL},
    {"kiln_batch", 1, 16, "ehtr", 0x6069fabf1e484e55ULL},
    {"kiln_batch", 1, 64, "dnor", 0x66a387a5e4c8aa80ULL},
    {"kiln_batch", 1, 64, "inor", 0xf25c577c6df41dc6ULL},
    {"kiln_batch", 1, 64, "baseline", 0x9992fe5d08484a5cULL},
    {"kiln_batch", 1, 64, "ehtr", 0xe3705c681814c3a2ULL},
    {"kiln_batch", 1, 1000, "dnor", 0x19ce07740428cb06ULL},
    {"kiln_batch", 1, 1000, "inor", 0xb587a6a024c2d6a4ULL},
    {"kiln_batch", 1, 1000, "baseline", 0x59d6cd464d6fb7b1ULL},
    {"kiln_batch", 1, 1000, "ehtr", 0x90c22e9cd98daf47ULL},
    {"kiln_batch", 2, 16, "dnor", 0x04cfd4ba3b16cb51ULL},
    {"kiln_batch", 2, 16, "inor", 0xfe455c5ae671cdb6ULL},
    {"kiln_batch", 2, 16, "baseline", 0x96bb653d2c7bf41eULL},
    {"kiln_batch", 2, 16, "ehtr", 0xe64062cc1cdaa364ULL},
    {"kiln_batch", 2, 64, "dnor", 0xf3d86fc02f380780ULL},
    {"kiln_batch", 2, 64, "inor", 0x8cc91d98e87b8040ULL},
    {"kiln_batch", 2, 64, "baseline", 0xe6ec8925457a6217ULL},
    {"kiln_batch", 2, 64, "ehtr", 0x39ff9b23cc53c6c0ULL},
    {"kiln_batch", 2, 1000, "dnor", 0xa6edd4b80fd7bdf7ULL},
    {"kiln_batch", 2, 1000, "inor", 0xc01a34c6f8a538c2ULL},
    {"kiln_batch", 2, 1000, "baseline", 0x3f2f36ac92aea8a4ULL},
    {"kiln_batch", 2, 1000, "ehtr", 0xa45b1409a84ed373ULL},
    {"kiln_batch", 3, 16, "dnor", 0x4246e1c7ceb361f9ULL},
    {"kiln_batch", 3, 16, "inor", 0x4fc4db8a3c685678ULL},
    {"kiln_batch", 3, 16, "baseline", 0x06dba71de7d8e056ULL},
    {"kiln_batch", 3, 16, "ehtr", 0x8d8453e37a481bdbULL},
    {"kiln_batch", 3, 64, "dnor", 0x7689fddab46c214bULL},
    {"kiln_batch", 3, 64, "inor", 0x5e4549774d871d94ULL},
    {"kiln_batch", 3, 64, "baseline", 0xcfe20d553141f1b1ULL},
    {"kiln_batch", 3, 64, "ehtr", 0x5aabe12bd21898dbULL},
    {"kiln_batch", 3, 1000, "dnor", 0xdd6563a596499298ULL},
    {"kiln_batch", 3, 1000, "inor", 0x35f6bb56bef41ab5ULL},
    {"kiln_batch", 3, 1000, "baseline", 0xfcf8105276953048ULL},
    {"kiln_batch", 3, 1000, "ehtr", 0x63a8da9b5647efa5ULL},
    {"porter_800s", 1, 16, "dnor", 0x38a4aa213e3d119eULL},
    {"porter_800s", 1, 16, "inor", 0xe1bac60d3e1953c9ULL},
    {"porter_800s", 1, 16, "baseline", 0x1fdc8af333054ddeULL},
    {"porter_800s", 1, 16, "ehtr", 0xcd3c045601c63d3dULL},
    {"porter_800s", 1, 64, "dnor", 0x98a39cc7fa7961e4ULL},
    {"porter_800s", 1, 64, "inor", 0x4d85fce57b22166dULL},
    {"porter_800s", 1, 64, "baseline", 0xd115f9f5b4beb903ULL},
    {"porter_800s", 1, 64, "ehtr", 0x2994715e1febc841ULL},
    {"porter_800s", 1, 1000, "dnor", 0x8394391a12e1e133ULL},
    {"porter_800s", 1, 1000, "inor", 0x2ad26568a42d1627ULL},
    {"porter_800s", 1, 1000, "baseline", 0x45053f2469524da8ULL},
    {"porter_800s", 1, 1000, "ehtr", 0x6710210c28b69365ULL},
    {"porter_800s", 2, 16, "dnor", 0x3d8db3d7d0d18d22ULL},
    {"porter_800s", 2, 16, "inor", 0x2f0f2b7fc6de0c05ULL},
    {"porter_800s", 2, 16, "baseline", 0xeb2c5181691fb1feULL},
    {"porter_800s", 2, 16, "ehtr", 0x3b865f518163a0edULL},
    {"porter_800s", 2, 64, "dnor", 0x37b2828ddef8d1f3ULL},
    {"porter_800s", 2, 64, "inor", 0x5d65e49d1fffab8fULL},
    {"porter_800s", 2, 64, "baseline", 0xf54a5972ac46ebbfULL},
    {"porter_800s", 2, 64, "ehtr", 0xb0f6fa4e2eed26b6ULL},
    {"porter_800s", 2, 1000, "dnor", 0x6dd2b743857cbb1fULL},
    {"porter_800s", 2, 1000, "inor", 0xfbdd5d215926d9daULL},
    {"porter_800s", 2, 1000, "baseline", 0x2ed0898d245c62baULL},
    {"porter_800s", 2, 1000, "ehtr", 0x4642b0c3daf649d2ULL},
    {"porter_800s", 3, 16, "dnor", 0xff4f005132c1cd13ULL},
    {"porter_800s", 3, 16, "inor", 0xfef0167a1654dec6ULL},
    {"porter_800s", 3, 16, "baseline", 0x1ba4722d26cd8bf7ULL},
    {"porter_800s", 3, 16, "ehtr", 0x876491f9019b303dULL},
    {"porter_800s", 3, 64, "dnor", 0xe48263667387feabULL},
    {"porter_800s", 3, 64, "inor", 0xb2421cef0f6bf6cdULL},
    {"porter_800s", 3, 64, "baseline", 0xc5a4eef89e84bf8dULL},
    {"porter_800s", 3, 64, "ehtr", 0xdef647ba91cb44fdULL},
    {"porter_800s", 3, 1000, "dnor", 0x1589ead15fe05f00ULL},
    {"porter_800s", 3, 1000, "inor", 0x925aed215f97ed95ULL},
    {"porter_800s", 3, 1000, "baseline", 0x7518134ae781515cULL},
    {"porter_800s", 3, 1000, "ehtr", 0x151f40eb11a890c3ULL},
    {"urban_stop_start", 1, 16, "dnor", 0x8bb61174827a8facULL},
    {"urban_stop_start", 1, 16, "inor", 0x04b7dad09138211cULL},
    {"urban_stop_start", 1, 16, "baseline", 0x6944708963c8d9e7ULL},
    {"urban_stop_start", 1, 16, "ehtr", 0xc4c6d8de001f5b07ULL},
    {"urban_stop_start", 1, 64, "dnor", 0x7539e0bf28d47e72ULL},
    {"urban_stop_start", 1, 64, "inor", 0x02ac80f8aebbcba8ULL},
    {"urban_stop_start", 1, 64, "baseline", 0x29ba6c5f8f3c0ff5ULL},
    {"urban_stop_start", 1, 64, "ehtr", 0xa4511a176a8fb38dULL},
    {"urban_stop_start", 1, 1000, "dnor", 0x3b53083b114041c8ULL},
    {"urban_stop_start", 1, 1000, "inor", 0x2358347eadfb2571ULL},
    {"urban_stop_start", 1, 1000, "baseline", 0xf0512a2bff93d4f7ULL},
    {"urban_stop_start", 1, 1000, "ehtr", 0xe27fd3cddc76b845ULL},
    {"urban_stop_start", 2, 16, "dnor", 0x2c41f634957b530dULL},
    {"urban_stop_start", 2, 16, "inor", 0x12d78d1b5204631fULL},
    {"urban_stop_start", 2, 16, "baseline", 0xb1bdb4808a2c3ec3ULL},
    {"urban_stop_start", 2, 16, "ehtr", 0x4c855074d9351e74ULL},
    {"urban_stop_start", 2, 64, "dnor", 0xf747ed56e8838186ULL},
    {"urban_stop_start", 2, 64, "inor", 0x82568430399eb597ULL},
    {"urban_stop_start", 2, 64, "baseline", 0x3815e59c7b3742caULL},
    {"urban_stop_start", 2, 64, "ehtr", 0xb88f0448d36bf101ULL},
    {"urban_stop_start", 2, 1000, "dnor", 0x6ee72894db199ce0ULL},
    {"urban_stop_start", 2, 1000, "inor", 0xdf091a3f750870bfULL},
    {"urban_stop_start", 2, 1000, "baseline", 0x9e09db474e6befe3ULL},
    {"urban_stop_start", 2, 1000, "ehtr", 0x4b51ec557409f4e8ULL},
    {"urban_stop_start", 3, 16, "dnor", 0x825cb16ec804ff92ULL},
    {"urban_stop_start", 3, 16, "inor", 0xc425c63c03a46eb9ULL},
    {"urban_stop_start", 3, 16, "baseline", 0xea3e04c49d1e4eb6ULL},
    {"urban_stop_start", 3, 16, "ehtr", 0x519feedcebbc4579ULL},
    {"urban_stop_start", 3, 64, "dnor", 0x341b401875e1cb65ULL},
    {"urban_stop_start", 3, 64, "inor", 0x57d69f5d6d8c201aULL},
    {"urban_stop_start", 3, 64, "baseline", 0xa7436817301afd7eULL},
    {"urban_stop_start", 3, 64, "ehtr", 0x1bcec1279b90eca5ULL},
    {"urban_stop_start", 3, 1000, "dnor", 0x00b1e387258a23f8ULL},
    {"urban_stop_start", 3, 1000, "inor", 0xfd4618366224fc9cULL},
    {"urban_stop_start", 3, 1000, "baseline", 0x7a154741270239d4ULL},
    {"urban_stop_start", 3, 1000, "ehtr", 0x93e781ba1895c5c4ULL},
    {"winter_cold_start", 1, 16, "dnor", 0x1658b70bbb4948d9ULL},
    {"winter_cold_start", 1, 16, "inor", 0xe40967a6bbf8786dULL},
    {"winter_cold_start", 1, 16, "baseline", 0xe7e93c9ee09b430dULL},
    {"winter_cold_start", 1, 16, "ehtr", 0x7a45318a482984a9ULL},
    {"winter_cold_start", 1, 64, "dnor", 0x7ead1018cb084b4fULL},
    {"winter_cold_start", 1, 64, "inor", 0xa7b70a6a2ace298fULL},
    {"winter_cold_start", 1, 64, "baseline", 0x9213835bcafdafabULL},
    {"winter_cold_start", 1, 64, "ehtr", 0x303e2523804d543eULL},
    {"winter_cold_start", 1, 1000, "dnor", 0xc440f6554cabed39ULL},
    {"winter_cold_start", 1, 1000, "inor", 0xe4b906870052e3ecULL},
    {"winter_cold_start", 1, 1000, "baseline", 0x55b30817cded7450ULL},
    {"winter_cold_start", 1, 1000, "ehtr", 0x75d7200e19e7cbf2ULL},
    {"winter_cold_start", 2, 16, "dnor", 0xc6da091965ba3c09ULL},
    {"winter_cold_start", 2, 16, "inor", 0xc178800d5ad95b45ULL},
    {"winter_cold_start", 2, 16, "baseline", 0xb548d660ebc577b1ULL},
    {"winter_cold_start", 2, 16, "ehtr", 0x746098b9e6ca19e5ULL},
    {"winter_cold_start", 2, 64, "dnor", 0xfa73d5df29418ab4ULL},
    {"winter_cold_start", 2, 64, "inor", 0x8b4bd5273baa1509ULL},
    {"winter_cold_start", 2, 64, "baseline", 0x7d70260f6e8f50ccULL},
    {"winter_cold_start", 2, 64, "ehtr", 0x5f66c21854485a19ULL},
    {"winter_cold_start", 2, 1000, "dnor", 0xead9716e4dad68d2ULL},
    {"winter_cold_start", 2, 1000, "inor", 0xf3082a880c2406b9ULL},
    {"winter_cold_start", 2, 1000, "baseline", 0x6f241b248504f776ULL},
    {"winter_cold_start", 2, 1000, "ehtr", 0xeec2e415199c83ffULL},
    {"winter_cold_start", 3, 16, "dnor", 0x74b112e86442a076ULL},
    {"winter_cold_start", 3, 16, "inor", 0xf9e4c030663e7922ULL},
    {"winter_cold_start", 3, 16, "baseline", 0xa5ef440d744f6d46ULL},
    {"winter_cold_start", 3, 16, "ehtr", 0xf5b174c5075965f6ULL},
    {"winter_cold_start", 3, 64, "dnor", 0xed0e9a233dd7ae8bULL},
    {"winter_cold_start", 3, 64, "inor", 0x57597cb980e28180ULL},
    {"winter_cold_start", 3, 64, "baseline", 0x75695b31538698dbULL},
    {"winter_cold_start", 3, 64, "ehtr", 0xb21624a2dcb11f8cULL},
    {"winter_cold_start", 3, 1000, "dnor", 0x20731bb6339afb6eULL},
    {"winter_cold_start", 3, 1000, "inor", 0xf85023aaaebfb3a4ULL},
    {"winter_cold_start", 3, 1000, "baseline", 0x30e4177f01d0aec2ULL},
    {"winter_cold_start", 3, 1000, "ehtr", 0x82841f823a2c2eb1ULL},
};
// clang-format on

std::uint64_t hash_u64(std::uint64_t value, std::uint64_t state) {
  return util::fnv1a64(&value, sizeof value, state);
}

std::uint64_t run_digest(const thermal::TemperatureTrace& trace,
                         const std::string& scheme) {
  StreamConfig config;
  config.scheme = parse_stream_scheme(scheme);
  config.num_modules = trace.num_modules();
  config.dt_s = trace.dt_s();
  config.sim.num_threads = 1;
  const std::unique_ptr<core::Reconfigurer> controller =
      make_stream_controller(config);
  SimStepper stepper(*controller, trace.dt_s(), trace.num_modules(),
                     config.sim);
  std::uint64_t h = util::kFnv1aOffsetBasis;
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    TraceSample sample;
    sample.time_s = static_cast<double>(t) * trace.dt_s();
    sample.module_temps_c = trace.step_temperatures(t);
    sample.ambient_c = trace.ambient_c(t);
    const StepRecord rec = stepper.step(sample);
    h = util::fnv1a64_double(rec.time_s, h);
    h = util::fnv1a64_double(rec.gross_power_w, h);
    h = util::fnv1a64_double(rec.net_power_w, h);
    h = util::fnv1a64_double(rec.ideal_power_w, h);
    h = hash_u64(rec.invoked ? 1 : 0, h);
    h = hash_u64(rec.switched ? 1 : 0, h);
    h = hash_u64(rec.switch_actuations, h);
    h = util::fnv1a64_double(rec.overhead_energy_j, h);
  }
  for (std::size_t start : stepper.current_group_starts()) {
    h = hash_u64(start, h);
  }
  return h;
}

struct Case {
  std::string scenario;
  std::uint64_t seed;
  std::size_t modules;
  std::string scheme;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const std::string& scenario : thermal::scenario_names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (std::size_t modules : {16, 64, 1000}) {
        for (const char* scheme : {"dnor", "inor", "baseline", "ehtr"}) {
          cases.push_back({scenario, seed, modules, scheme});
        }
      }
    }
  }
  return cases;
}

const Expected* find_expected(const Case& c) {
  for (const Expected& e : kExpected) {
    if (c.scenario == e.scenario && c.seed == e.seed &&
        c.modules == e.modules && c.scheme == e.scheme) {
      return &e;
    }
  }
  return nullptr;
}

TEST(DecisionDigest, EverySchemeScenarioSeedAndSizeMatchesTheRecord) {
  const bool print = std::getenv("TEGREC_PRINT_DIGESTS") != nullptr;
  const std::vector<Case> cases = all_cases();
  std::string current_trace;
  std::optional<thermal::TemperatureTrace> trace;
  for (const Case& c : cases) {
    // Cases sharing a (scenario, seed, size) are adjacent; one trace each.
    const std::string key = c.scenario + "/" + std::to_string(c.seed) + "/" +
                            std::to_string(c.modules);
    if (key != current_trace) {
      trace = fixtures::compressed_trace(c.scenario, c.seed, c.modules,
                                         kDurationS);
      current_trace = key;
    }
    const std::uint64_t digest = run_digest(*trace, c.scheme);
    if (print) {
      std::printf("    {\"%s\", %llu, %zu, \"%s\", 0x%016llxULL},\n",
                  c.scenario.c_str(), static_cast<unsigned long long>(c.seed),
                  c.modules, c.scheme.c_str(),
                  static_cast<unsigned long long>(digest));
      continue;
    }
    const Expected* expected = find_expected(c);
    ASSERT_NE(expected, nullptr) << "no recorded digest for " << key << " "
                                 << c.scheme;
    EXPECT_EQ(digest, expected->digest)
        << c.scheme << " on " << key << " now hashes to 0x" << std::hex
        << digest;
  }
  if (!print) {
    EXPECT_EQ(cases.size(), std::size(kExpected));
  }
}

}  // namespace
}  // namespace tegrec::sim
