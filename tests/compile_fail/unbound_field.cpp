// Compile-fail fixture for util::field_count<T>(), run by the CTest entry
// `field_count_guard` with -fsyntax-only.  The test passes only if the
// compiler rejects this file with the guard's message.
//
// The first struct carries every shape a config struct may have besides
// its data members — a nested enum, a static member, a member function, a
// defaulted operator==, a nested aggregate and library-type members — and
// its correct count is asserted first, so a probe that miscounts any of
// these shapes fails with that assert's text instead.  The second struct
// gained a field its guard was not updated for, which must fail the build
// exactly like a field added to a guarded struct in src/.
#include <memory>
#include <string>
#include <vector>

#include "util/field_io.hpp"

namespace {

struct Nested {
  double a = 0.0;
  double b = 0.0;
};

struct DemoConfig {
  enum class Mode { kFast, kSlow };
  Mode mode = Mode::kFast;
  double duration_s = 10.0;
  std::vector<double> gains;
  std::string label;
  std::shared_ptr<const Nested> shared;
  Nested nested;
  static int counter;
  static constexpr int kLimit = 3;
  double duration_minutes() const { return duration_s / 60.0; }
  bool operator==(const DemoConfig&) const = default;
};

static_assert(tegrec::util::field_count<DemoConfig>() == 6,
              "probe miscounts DemoConfig: only its 6 data members count");
static_assert(tegrec::util::field_count<Nested>() == 2,
              "probe miscounts Nested");

struct GrownConfig {
  double duration_s = 10.0;
  std::vector<double> gains;
  double unbound_w = 0.0;  // added without a binding
};

static_assert(tegrec::util::field_count<GrownConfig>() == 2,
              "bind(FieldIo&, GrownConfig&): GrownConfig gained or lost a "
              "field; bind it, then update this count");

}  // namespace
