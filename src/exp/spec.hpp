// Declarative sweep specification: the grid of experiment axes the
// `radiocast_bench sweep` subcommand expands and executes.
//
// A sweep is a cartesian grid over instance axes (graph family + the
// family's parameter, n), protocol cores, and execution axes (medium
// backend, sender-recovery strategy), with a replication count, lane
// width, and base seed. The spec is declarative — it can be read from CLI
// flags (`--n=512,1024,2048 --p=geom:0.001..0.1:5`) or a JSON manifest
// file (`--manifest=grid.json`), and echoes itself back into the emitted
// report so a sweep is reproducible from its own output.
//
// Numeric axis expressions (parse_double_axis / parse_int_axis):
//   3                 one value
//   512,1024,2048     explicit comma list
//   lin:16..64:4      4 linearly spaced points over [16, 64]
//   geom:0.001..0.1:5 5 geometrically spaced points (endpoints included)
// The p axis additionally accepts a deg: prefix (`--p=deg:12`), meaning
// the values are target AVERAGE DEGREES: each grid point uses p = deg/n,
// which keeps density constant across an n sweep — the comparison the
// paper's curves want.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "radio/medium.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace radiocast::exp {

/// Expands a numeric axis expression (see file comment). Throws
/// std::invalid_argument naming `what` on malformed syntax, non-positive
/// geometric endpoints, inverted ranges, or zero-point ranges.
std::vector<double> parse_double_axis(std::string_view text,
                                      std::string_view what);
/// Integer form: values are rounded to the nearest integer and
/// consecutive duplicates (from coarse geometric spacing) are dropped.
std::vector<std::uint64_t> parse_int_axis(std::string_view text,
                                          std::string_view what);

/// Graph families the sweep can instantiate. Family parameters:
///   gnp        — p (edge probability, or deg: average degree)
///   rgg        — radius (unit-disk connection radius)
///   ba         — m (Barabasi-Albert attachment count per node)
///   powerlaw   — exp (Chung-Lu power-law exponent, > 2), plus the scalar
///                --pl-deg knob (target average degree, default 12)
///   cliquepath — d (target diameter of the path-of-cliques instance)
///   grid       — none (near-square rows x cols grid covering >= n nodes)
inline constexpr std::array<std::string_view, 6> kFamilyNames{
    "gnp", "rgg", "ba", "powerlaw", "cliquepath", "grid"};

/// Protocol cores the sweep can drive:
///   decay   — Decay-relay broadcast (core::compete_batched with full-depth
///             cycles: the BGI yardstick), lane-batched through
///             BatchNetwork
///   compete — Decay-relay Compete with |S| = sources (lane-batched)
///   cr      — Decay-relay broadcast under core::cr_params (the CR/KP
///             yardstick), lane-batched
///   cd      — the paper's Czumaj-Davies broadcast (core::broadcast;
///             scalar core, one lane per replication)
///   hw      — the Haeupler-Wajc baseline (core::broadcast with
///             baselines::hw_params(); scalar core)
inline constexpr std::array<std::string_view, 5> kProtocolNames{
    "decay", "compete", "cr", "cd", "hw"};

struct SweepSpec {
  std::vector<std::string> families{"gnp", "cliquepath"};
  std::vector<std::uint32_t> n{512, 1024, 2048};
  /// gnp parameter axis; interpreted as average degrees when p_is_degree.
  std::vector<double> p{12.0};
  bool p_is_degree = true;
  std::vector<double> radius{0.06};
  /// ba parameter axis: attachment edges per node (`--m=2,4`).
  std::vector<std::uint32_t> ba_m{2};
  /// powerlaw parameter axis: Chung-Lu exponents (`--exp=2.2,2.5,3`).
  std::vector<double> exponent{2.5};
  /// powerlaw scalar knob: target average degree shared by every exponent
  /// grid point (`--pl-deg=16`); a knob, not an axis, like lanes/reps.
  double pl_deg = 12.0;
  std::vector<std::uint32_t> d{64};
  std::vector<std::string> protocols{"decay"};
  std::vector<radio::MediumKind> mediums{radio::MediumKind::kScalar};
  std::vector<radio::RecoveryStrategy> recoveries{
      radio::RecoveryStrategy::kAuto};
  /// Lane batch width for the batched protocol cores (1..kMaxLanes).
  int lanes = radio::kMaxLanes;
  /// Monte-Carlo replications per grid point.
  int reps = 8;
  std::uint64_t seed = 17;
  /// Compete's |S| (>= 1).
  int sources = 2;
  /// Round budget per replication; 0 = auto (a generous multiple of the
  /// point's theory bound, so w.h.p. runs terminate and genuinely stuck
  /// ones are bounded).
  std::uint64_t max_rounds = 0;

  /// Builds the spec from CLI flags layered over the defaults (and over
  /// --manifest=FILE when given: manifest values replace defaults,
  /// explicit flags override the manifest). `quick` shrinks the default
  /// grid to smoke-test size when the axes are not explicitly given.
  static SweepSpec from_cli(const util::Cli& cli, bool quick);

  /// Reads a JSON manifest. Recognised keys mirror the CLI flags:
  /// family, n, p, radius, d, protocol, medium, recovery (arrays of
  /// strings/numbers or a single axis-expression string), lanes, reps,
  /// seed, sources, max-rounds (numbers). Unknown keys are rejected so a
  /// typo'd axis never silently vanishes.
  static SweepSpec from_json(const util::Json& manifest);
  static SweepSpec from_manifest_file(const std::string& path);

  /// Manifest echo: to_json() round-trips through from_json() to an
  /// equivalent spec, and is embedded in the sweep report.
  util::Json to_json() const;

  /// Throws std::invalid_argument on empty axes, unknown family/protocol
  /// names, out-of-range lanes/reps/sources, or non-positive parameters.
  void validate() const;
};

}  // namespace radiocast::exp
