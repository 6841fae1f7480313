#include "baselines/le_binary_search.hpp"

#include <algorithm>
#include <cmath>

#include "core/compete_batched.hpp"
#include "core/theory.hpp"
#include "radio/network.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace radiocast::baselines {

BinarySearchLeResult binary_search_leader_election(
    const graph::Graph& g, std::uint32_t diameter,
    const BinarySearchLeParams& params, std::uint64_t seed) {
  const graph::NodeId n = g.node_count();
  BinarySearchLeResult out;
  if (n == 0) return out;
  util::Rng rng(util::mix_seed(seed, 0xB15EC7));

  const double log_n = util::safe_log2(static_cast<double>(n));
  const double p = std::min(
      1.0, params.candidate_c * log_n / static_cast<double>(n));
  const std::uint32_t bits =
      params.id_bits != 0
          ? std::min<std::uint32_t>(params.id_bits, 30)
          : std::min<std::uint32_t>(30, 2 * std::max<std::uint32_t>(
                                            4, util::clog2(n)));

  // Candidate self-selection + random IDs (retry on an empty draw, as a
  // deployment would after a silent timeout).
  std::vector<graph::NodeId> cand_node;
  std::vector<std::uint64_t> cand_id;
  for (std::uint32_t attempt = 0; attempt < 64 && cand_node.empty();
       ++attempt) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (rng.bernoulli(p)) {
        cand_node.push_back(v);
        cand_id.push_back(rng.uniform(std::uint64_t{1} << bits));
      }
    }
  }
  out.candidate_count = static_cast<std::uint32_t>(cand_node.size());
  if (cand_node.empty()) return out;

  // Per-phase broadcast budget: enough for a CR/KP broadcast whp.
  const std::uint64_t budget = static_cast<std::uint64_t>(
      params.phase_c * core::theory::bound_crkp(n, std::max<std::uint32_t>(
                                                       2, diameter)));

  core::BatchedCompeteParams bp = params.use_bgi
                                     ? core::bgi_params(n)
                                     : core::cr_params(n, diameter);
  bp.max_rounds = budget;
  radio::Network net(g);

  // Every node tracks the prefix it believes won so far; candidates track
  // whether their own ID still matches their local prefix.
  std::vector<std::uint64_t> prefix(n, 0);
  std::vector<std::uint8_t> alive(cand_node.size(), 1);

  for (std::uint32_t phase = 0; phase < bits; ++phase) {
    const std::uint32_t b = bits - 1 - phase;
    std::vector<core::CompeteSource> sources;
    for (std::size_t c = 0; c < cand_node.size(); ++c) {
      if (alive[c] && ((cand_id[c] >> b) & 1u)) {
        sources.push_back({cand_node[c], 1});
      }
    }
    std::vector<std::uint8_t> heard(n, 0);
    if (!sources.empty()) {
      const std::uint64_t phase_seed[] = {rng()};
      const auto r =
          core::compete_batched(net, sources, bp, phase_seed).front();
      for (graph::NodeId v = 0; v < n; ++v) {
        heard[v] = r.best[v] != radio::kNoPayload;
      }
    }
    // The protocol is oblivious: the full budget elapses either way.
    out.rounds += budget;
    ++out.phases;
    for (graph::NodeId v = 0; v < n; ++v) {
      prefix[v] = (prefix[v] << 1) | (heard[v] ? 1u : 0u);
    }
    for (std::size_t c = 0; c < cand_node.size(); ++c) {
      if (!alive[c]) continue;
      // A candidate survives iff its ID prefix equals the prefix its own
      // node observed.
      const std::uint64_t own_prefix = cand_id[c] >> b;
      if (own_prefix != prefix[cand_node[c]]) alive[c] = 0;
    }
    if (out.rounds > params.max_rounds) break;
  }

  // Winners announce (ID, node); everyone adopts what they hear.
  std::vector<core::CompeteSource> winners;
  for (std::size_t c = 0; c < cand_node.size(); ++c) {
    if (alive[c] && cand_id[c] == prefix[cand_node[c]]) {
      winners.push_back(
          {cand_node[c],
           (cand_id[c] << 32) | static_cast<radio::Payload>(cand_node[c])});
    }
  }
  std::uint32_t agreeing = 0;
  if (!winners.empty()) {
    const std::uint64_t final_seed[] = {rng()};
    const auto fin =
        core::compete_batched(net, winners, bp, final_seed).front();
    out.rounds += budget;
    out.leader = static_cast<graph::NodeId>(fin.winner & 0xFFFFFFFFu);
    agreeing = fin.informed;
  }
  out.success = winners.size() == 1 && agreeing == n;
  return out;
}

}  // namespace radiocast::baselines
