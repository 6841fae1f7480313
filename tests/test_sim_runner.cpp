// The sim layer's contracts: scenario registration/dispatch, and the
// Runner's central promise — results are byte-identical for any thread
// count, because replications are merged in replication order.
#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/instances.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace radiocast::sim {
namespace {

// ----------------------------------------------------------- registry

TEST(ScenarioRegistry, RegistersAndFinds) {
  ScenarioRegistry reg;
  reg.add({"alpha", "first", [](ScenarioContext&) {}});
  reg.add({"beta", "second", [](ScenarioContext&) {}});
  ASSERT_EQ(reg.size(), 2u);
  ASSERT_NE(reg.find("alpha"), nullptr);
  EXPECT_EQ(reg.find("alpha")->description, "first");
  EXPECT_EQ(reg.find("missing"), nullptr);
}

TEST(ScenarioRegistry, ListIsNameSorted) {
  ScenarioRegistry reg;
  reg.add({"zeta", "", [](ScenarioContext&) {}});
  reg.add({"alpha", "", [](ScenarioContext&) {}});
  reg.add({"mid", "", [](ScenarioContext&) {}});
  const auto scenarios = reg.list();
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0]->name, "alpha");
  EXPECT_EQ(scenarios[1]->name, "mid");
  EXPECT_EQ(scenarios[2]->name, "zeta");
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalid) {
  ScenarioRegistry reg;
  reg.add({"dup", "", [](ScenarioContext&) {}});
  EXPECT_THROW(reg.add({"dup", "", [](ScenarioContext&) {}}),
               std::invalid_argument);
  EXPECT_THROW(reg.add({"", "", [](ScenarioContext&) {}}),
               std::invalid_argument);
  EXPECT_THROW(reg.add({"norun", "", nullptr}), std::invalid_argument);
}

TEST(ScenarioRegistry, UnknownScenarioErrorNamesKnownOnes) {
  ScenarioRegistry reg;
  reg.add({"known", "", [](ScenarioContext&) {}});
  util::Cli cli(0, nullptr);
  Runner runner(1);
  ScenarioContext ctx(cli, runner);
  try {
    reg.run("nope", ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("known"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RunDispatchesWithContext) {
  ScenarioRegistry reg;
  reg.add({"emit", "", [](ScenarioContext& ctx) {
             util::Table t({"x"});
             t.row().add(std::uint64_t{42});
             ctx.emit(t, "the title", "unused");
             ctx.note("the note");
           }});
  const char* argv[] = {"prog", "emit"};
  util::Cli cli(2, argv);
  Runner runner(1);
  ScenarioContext ctx(cli, runner);
  std::ostringstream captured;
  ctx.out = &captured;
  ctx.out_dir.clear();  // CSV off
  reg.run(cli.subcommand(), ctx);
  EXPECT_NE(captured.str().find("the title"), std::string::npos);
  EXPECT_NE(captured.str().find("42"), std::string::npos);
  EXPECT_NE(captured.str().find("the note"), std::string::npos);
}

TEST(ScenarioRegistry, GlobalHoldsTheBenchScenarios) {
  // The driver's scenarios live in bench/ (linked into radiocast_bench,
  // not into this test), so global() here only checks the singleton works.
  ScenarioRegistry& g1 = ScenarioRegistry::global();
  ScenarioRegistry& g2 = ScenarioRegistry::global();
  EXPECT_EQ(&g1, &g2);
}

// ------------------------------------------------------------- runner

TEST(Runner, MapPreservesIndexOrder) {
  Runner runner(4);
  const auto out = runner.map(37, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 37u);
  for (int i = 0; i < 37; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(Runner, MapHandlesZeroAndNegativeCounts) {
  Runner runner(4);
  EXPECT_TRUE(runner.map(0, [](int i) { return i; }).empty());
  EXPECT_TRUE(runner.map(-3, [](int i) { return i; }).empty());
}

TEST(Runner, MapPropagatesExceptions) {
  Runner runner(4);
  EXPECT_THROW(runner.map(8,
                          [](int i) -> int {
                            if (i == 5) throw std::runtime_error("boom");
                            return i;
                          }),
               std::runtime_error);
}

TEST(Runner, ReplicateSkipsNaNMetrics) {
  Runner runner(1);
  const auto stats = runner.replicate(
      4, /*base_seed=*/7, 2, [](int rep, std::uint64_t) {
        // Metric 0 present every rep; metric 1 only on even reps.
        return std::vector<double>{
            static_cast<double>(rep),
            rep % 2 == 0 ? static_cast<double>(rep) : std::nan("")};
      });
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].count(), 4u);
  EXPECT_DOUBLE_EQ(stats[0].mean(), 1.5);
  EXPECT_EQ(stats[1].count(), 2u);
  EXPECT_DOUBLE_EQ(stats[1].mean(), 1.0);
}

TEST(Runner, ReplicateRejectsWrongMetricCount) {
  Runner runner(1);
  EXPECT_THROW(runner.replicate(2, 7, 3,
                                [](int, std::uint64_t) {
                                  return std::vector<double>{1.0};
                                }),
               std::logic_error);
}

/// The core determinism contract: a replication body that derives all of
/// its randomness from the provided seed yields IDENTICAL merged stats —
/// and therefore identical rendered tables — for any thread count.
TEST(Runner, ThreadCountDoesNotChangeResults) {
  auto run_with = [](int threads) {
    Runner runner(threads);
    const auto stats = runner.replicate(
        16, /*base_seed=*/123, 2, [](int, std::uint64_t seed) {
          util::Rng rng(seed);
          double acc = 0.0;
          for (int i = 0; i < 100; ++i) acc += rng.uniform_real();
          return std::vector<double>{acc, rng.uniform_real()};
        });
    util::Table t({"metric", "mean", "stddev", "min", "max"});
    for (std::size_t m = 0; m < stats.size(); ++m) {
      t.row()
          .add(std::uint64_t{m})
          .add(stats[m].mean(), 9)
          .add(stats[m].stddev(), 9)
          .add(stats[m].min(), 9)
          .add(stats[m].max(), 9);
    }
    return t.to_string();
  };
  const std::string table1 = run_with(1);
  EXPECT_EQ(table1, run_with(2));
  EXPECT_EQ(table1, run_with(4));
  EXPECT_EQ(table1, run_with(16));
}

TEST(Runner, ThreadsClampedToAtLeastOne) {
  Runner runner(0);
  EXPECT_EQ(runner.threads(), 1);
  Runner runner_neg(-5);
  EXPECT_EQ(runner_neg.threads(), 1);
}

// ---------------------------------------------------------- instances

TEST(Instances, CliquepathMatchesRequestedSize) {
  const Instance inst = make_cliquepath_instance(512, 48);
  EXPECT_EQ(inst.g.node_count(), 512u);
  EXPECT_GT(inst.diameter, 0u);
  EXPECT_NE(inst.name.find("cliquepath"), std::string::npos);
}

TEST(Instances, GridDiameterIsExact) {
  const Instance inst = make_grid_instance(6, 9);
  EXPECT_EQ(inst.g.node_count(), 54u);
  EXPECT_EQ(inst.diameter, 13u);
}

TEST(Instances, RggNameCarriesTheDiameter) {
  // The reports title rgg tables with the instance name, and their
  // D-dependent columns are read against it.
  const Instance inst = make_rgg_instance(300, 0.12, 5, 1);
  EXPECT_EQ(inst.diameter, 15u);
  EXPECT_EQ(inst.name, "rgg(n=300,r=0.12,D=15)");
}

}  // namespace
}  // namespace radiocast::sim
