// The 14 solution variables carried by MiniS3D, matching the paper's
// lifted-hydrogen S3D case (Table I: 14 variables, 8 bytes each): three
// velocity components, temperature, pressure, and 9 chemical species of the
// H2/air system.
#pragma once

#include <array>
#include <string_view>

namespace hia {

enum class Variable : int {
  kVelU = 0,
  kVelV,
  kVelW,
  kTemperature,
  kPressure,
  kYH2,
  kYO2,
  kYH2O,
  kYH,
  kYO,
  kYOH,
  kYHO2,
  kYH2O2,
  kYN2,
  kCount
};

inline constexpr int kNumVariables = static_cast<int>(Variable::kCount);

inline constexpr std::array<std::string_view, kNumVariables> kVariableNames{
    "u", "v", "w", "T", "P", "Y_H2", "Y_O2", "Y_H2O", "Y_H", "Y_O", "Y_OH",
    "Y_HO2", "Y_H2O2", "Y_N2"};

constexpr std::string_view variable_name(Variable v) {
  return kVariableNames[static_cast<size_t>(v)];
}

}  // namespace hia
