#include "core/leader_election.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace radiocast::core {

LeaderElectionResult elect_leader(const graph::Graph& g,
                                  std::uint32_t diameter,
                                  const LeaderElectionParams& params,
                                  std::uint64_t seed) {
  const NodeId n = g.node_count();
  LeaderElectionResult out;
  util::Rng rng(util::mix_seed(seed, 0xE1EC7));

  // Algorithm 6 step 1: self-selection with probability Theta(log n / n).
  const double log_n = util::safe_log2(static_cast<double>(n));
  const double p = std::min(1.0, params.candidate_c * log_n /
                                     static_cast<double>(std::max<NodeId>(1, n)));
  // Step 2: random Theta(log n)-bit IDs.
  // Random-ID width: Theta(log n) bits, capped at 31 so the (id, node)
  // encoding below fits one 64-bit payload.
  const double bits =
      std::clamp(params.id_bits_c * log_n, 8.0, 31.0);
  const std::uint64_t id_space = std::uint64_t{1}
                                 << static_cast<std::uint32_t>(std::ceil(bits));

  std::vector<CompeteSource> candidates;
  std::unordered_set<radio::Payload> seen;
  for (NodeId v = 0; v < n; ++v) {
    if (!rng.bernoulli(p)) continue;
    // Encode (random id, node) so the winning message identifies its
    // holder; the random id dominates the comparison (the node id is a
    // tiebreak, exactly the "IDs unique whp" event the paper conditions
    // on — we track whether it held).
    const std::uint64_t rand_id = rng.uniform(id_space);
    if (!seen.insert(rand_id).second) out.ids_unique = false;
    const radio::Payload msg =
        (rand_id << 32) | static_cast<radio::Payload>(v);
    candidates.push_back({v, msg});
  }
  // Degenerate (tiny n or unlucky draw): the paper's whp guarantee assumes
  // |C| >= 1; we retry the self-selection, as a real deployment would after
  // a silent timeout.
  std::uint32_t retries = 0;
  while (candidates.empty() && retries < 64) {
    ++retries;
    for (NodeId v = 0; v < n; ++v) {
      if (!rng.bernoulli(p)) continue;
      const std::uint64_t rand_id = rng.uniform(id_space);
      const radio::Payload msg =
          (rand_id << 32) | static_cast<radio::Payload>(v);
      candidates.push_back({v, msg});
    }
  }
  out.candidate_count = static_cast<std::uint32_t>(candidates.size());
  if (candidates.empty()) return out;

  // Step 3: Compete(C).
  CompeteResult r = compete(g, diameter, candidates, params.compete, rng());
  out.rounds = r.rounds;
  out.precompute_rounds_charged = r.precompute_rounds_charged;
  out.leader = static_cast<NodeId>(r.winner & 0xFFFFFFFFu);
  out.agreeing = r.informed;
  out.success = r.success && out.leader < n;
  out.best = std::move(r.best);
  out.main_stats = r.main_stats;
  out.background_stats = r.background_stats;
  return out;
}

}  // namespace radiocast::core
