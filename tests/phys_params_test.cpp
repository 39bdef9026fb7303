#include "phys/params.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

namespace flashmark {
namespace {

TEST(PhysParams, DefaultsValidate) {
  EXPECT_NO_THROW(PhysParams{}.validate());
  EXPECT_NO_THROW(PhysParams::msp430_calibrated().validate());
}

struct BadField {
  const char* name;
  std::function<void(PhysParams&)> mutate;
};

// gtest's default printer would dump the bytes of `name` (a pointer) into
// each case's ctest name, so the names would change with every build.
void PrintTo(const BadField& f, std::ostream* os) { *os << f.name; }

class PhysParamsValidation : public ::testing::TestWithParam<BadField> {};

TEST_P(PhysParamsValidation, RejectsBadValue) {
  PhysParams p;
  GetParam().mutate(p);
  EXPECT_THROW(p.validate(), std::invalid_argument) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, PhysParamsValidation,
    ::testing::Values(
        BadField{"tte_median_zero", [](PhysParams& p) { p.tte_fresh_median_us = 0.0; }},
        BadField{"tte_median_negative", [](PhysParams& p) { p.tte_fresh_median_us = -1.0; }},
        BadField{"tte_sigma_negative", [](PhysParams& p) { p.tte_fresh_log_sigma = -0.1; }},
        BadField{"k_damage_negative", [](PhysParams& p) { p.k_damage = -0.1; }},
        BadField{"exponent_zero", [](PhysParams& p) { p.damage_exponent = 0.0; }},
        BadField{"suscept_min_negative", [](PhysParams& p) { p.suscept_min = -0.1; }},
        BadField{"suscept_min_too_big", [](PhysParams& p) { p.suscept_min = 1.0; }},
        BadField{"suscept_shape_zero", [](PhysParams& p) { p.suscept_gamma_shape = 0.0; }},
        BadField{"suscept_cap_below_min", [](PhysParams& p) { p.suscept_cap = p.suscept_min; }},
        BadField{"stress_program_negative", [](PhysParams& p) { p.stress_program = -1.0; }},
        BadField{"stress_erase_negative", [](PhysParams& p) { p.stress_erase_transition = -1.0; }},
        BadField{"stress_idle_negative", [](PhysParams& p) { p.stress_erase_idle = -1.0; }},
        BadField{"stress_reprogram_negative", [](PhysParams& p) { p.stress_reprogram = -1.0; }},
        BadField{"noise_tau_zero", [](PhysParams& p) { p.read_noise_tau_us = 0.0; }},
        BadField{"jitter_negative", [](PhysParams& p) { p.tte_event_jitter_sigma = -0.1; }},
        BadField{"prog_completion_zero", [](PhysParams& p) { p.prog_completion_mean = 0.0; }},
        BadField{"prog_completion_over_one", [](PhysParams& p) { p.prog_completion_mean = 1.5; }},
        BadField{"prog_sigma_negative", [](PhysParams& p) { p.prog_completion_sigma = -0.1; }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(PhysParams, GrowthIsZeroAtZero) {
  PhysParams p;
  EXPECT_EQ(p.growth(0.0), 0.0);
  EXPECT_EQ(p.growth(-5.0), 0.0);
}

TEST(PhysParams, GrowthMonotone) {
  PhysParams p;
  double prev = 0.0;
  for (double n : {100.0, 1'000.0, 10'000.0, 50'000.0, 100'000.0}) {
    const double g = p.growth(n);
    EXPECT_GT(g, prev);
    prev = g;
  }
}

TEST(PhysParams, GrowthSuperlinear) {
  PhysParams p;  // exponent > 1
  EXPECT_GT(p.growth(20'000.0) / p.growth(10'000.0), 2.0);
}

TEST(PhysParams, SlowdownBaselineIsOne) {
  PhysParams p;
  EXPECT_DOUBLE_EQ(p.slowdown(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.slowdown(0.0, 50'000.0), 1.0);
}

TEST(PhysParams, SlowdownIncreasesWithStressAndSusceptibility) {
  PhysParams p;
  EXPECT_GT(p.slowdown(1.0, 20'000.0), p.slowdown(1.0, 10'000.0));
  EXPECT_GT(p.slowdown(2.0, 20'000.0), p.slowdown(1.0, 20'000.0));
}

TEST(PhysParams, SusceptibilityMeanNormalization) {
  PhysParams p;
  // E[s] = suscept_min + shape * scale should be 1 by construction.
  EXPECT_NEAR(p.suscept_min + p.suscept_gamma_shape * p.suscept_gamma_scale(),
              1.0, 1e-12);
}

}  // namespace
}  // namespace flashmark
