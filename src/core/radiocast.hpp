// Umbrella header: the public API of the radiocast library.
//
//   #include <core/radiocast.hpp>
//   using namespace radiocast;
//
//   graph::Graph g = graph::random_geometric(5000, 0.03, rng);
//   auto r = core::broadcast(g, diameter, /*source=*/0,
//                            core::CompeteParams{}, seed);
//   auto le = core::elect_leader(g, diameter, {}, seed);
#pragma once

#include "cluster/exponential_shifts.hpp"
#include "cluster/hierarchy.hpp"
#include "cluster/partition_stats.hpp"
#include "core/bfs_tree.hpp"
#include "core/broadcast.hpp"
#include "core/compete.hpp"
#include "core/leader_election.hpp"
#include "core/multi_message.hpp"
#include "core/params.hpp"
#include "core/propagation.hpp"
#include "core/theory.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "radio/engine.hpp"
#include "radio/network.hpp"
#include "radio/protocol.hpp"
#include "schedule/bfs_schedule.hpp"
#include "schedule/decay.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
