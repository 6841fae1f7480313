#include "sim/instances.hpp"

#include "graph/pargen.hpp"
#include "util/json.hpp"

namespace radiocast::sim {

Instance make_cliquepath_instance(graph::NodeId n, graph::NodeId d_target) {
  Instance inst;
  inst.g = graph::diameter_controlled(n, d_target);
  inst.diameter = graph::diameter_double_sweep(inst.g);
  inst.name = "cliquepath(n=" + std::to_string(n) +
              ",D=" + std::to_string(inst.diameter) + ")";
  return inst;
}

Instance make_grid_instance(graph::NodeId rows, graph::NodeId cols) {
  Instance inst;
  inst.g = graph::grid(rows, cols);
  inst.diameter = rows + cols - 2;
  inst.name = "grid(" + std::to_string(rows) + "x" + std::to_string(cols) + ")";
  return inst;
}

namespace {

Instance finish(graph::Graph g, std::string name) {
  Instance inst;
  inst.g = std::move(g);
  inst.diameter = graph::diameter_double_sweep(inst.g);
  inst.name = std::move(name);
  return inst;
}

}  // namespace

Instance make_gnp_instance(graph::NodeId n, double p, std::uint64_t seed,
                           int gen_threads) {
  return finish(
      graph::pargen::gnp(n, p, seed, {.threads = gen_threads}),
      "gnp(n=" + std::to_string(n) + ",p=" + util::json_number(p) + ")");
}

Instance make_rgg_instance(graph::NodeId n, double radius, std::uint64_t seed,
                           int gen_threads) {
  // Named with its diameter, like the clique path: an rgg's D is not a
  // function of (n, r), and the reports' D-dependent columns need it.
  Instance inst = finish(
      graph::pargen::random_geometric(n, radius, seed,
                                      {.threads = gen_threads}),
      "");
  inst.name = "rgg(n=" + std::to_string(n) + ",r=" +
              util::json_number(radius) +
              ",D=" + std::to_string(inst.diameter) + ")";
  return inst;
}

Instance make_ba_instance(graph::NodeId n, std::uint32_t attach,
                          std::uint64_t seed, int gen_threads) {
  return finish(graph::pargen::barabasi_albert(n, attach, seed,
                                               {.threads = gen_threads}),
                "ba(n=" + std::to_string(n) +
                    ",m=" + std::to_string(attach) + ")");
}

Instance make_powerlaw_instance(graph::NodeId n, double exponent,
                                double avg_deg, std::uint64_t seed,
                                int gen_threads) {
  return finish(graph::pargen::chung_lu(n, exponent, avg_deg, seed,
                                        {.threads = gen_threads}),
                "powerlaw(n=" + std::to_string(n) +
                    ",exp=" + util::json_number(exponent) +
                    ",deg=" + util::json_number(avg_deg) + ")");
}

}  // namespace radiocast::sim
