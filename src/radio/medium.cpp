#include "radio/medium.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "radio/medium_bitslice.hpp"
#include "radio/medium_scalar.hpp"

namespace radiocast::radio {

namespace {

/// Shared "name <-> enum" plumbing for the flag-valued enums; the error
/// message lists the legal values so a typo'd flag fails usefully.
template <class Enum, std::size_t N>
Enum parse_named(std::string_view name, const char* what,
                 const std::array<std::string_view, N>& names) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return static_cast<Enum>(i);
  }
  std::string msg = "unknown ";
  msg += what;
  msg += " '" + std::string(name) + "' (expected";
  const char* sep = " ";
  for (const std::string_view n : names) {
    msg += sep;
    msg += n;
    sep = " | ";
  }
  msg += ")";
  throw std::invalid_argument(msg);
}

}  // namespace

std::string_view to_string(MediumKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kMediumNames.size() ? kMediumNames[i] : "?";
}

MediumKind parse_medium_kind(std::string_view name) {
  return parse_named<MediumKind>(name, "medium", kMediumNames);
}

std::string_view to_string(RecoveryStrategy strategy) {
  const auto i = static_cast<std::size_t>(strategy);
  return i < kRecoveryNames.size() ? kRecoveryNames[i] : "?";
}

RecoveryStrategy parse_recovery_strategy(std::string_view name) {
  return parse_named<RecoveryStrategy>(name, "recovery strategy",
                                       kRecoveryNames);
}

std::uint64_t Medium::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BatchOutcome::clear() {
  delivered.clear();
  collisions.clear();
  transmitter_count.fill(0);
  delivered_count.fill(0);
  collided_count.fill(0);
  active_listeners = 0;
}

std::unique_ptr<Medium> make_medium(MediumKind kind, const graph::Graph& g,
                                    CollisionModel model, int threads,
                                    RecoveryStrategy recovery) {
  std::unique_ptr<Medium> medium;
  switch (kind) {
    case MediumKind::kScalar:
      medium = std::make_unique<ScalarMedium>(g, model);
      break;
    case MediumKind::kBitslice:
      medium = std::make_unique<BitsliceMedium>(g, model, threads);
      break;
  }
  if (medium == nullptr) throw std::invalid_argument("make_medium: bad kind");
  medium->set_recovery_strategy(recovery);
  return medium;
}

}  // namespace radiocast::radio
