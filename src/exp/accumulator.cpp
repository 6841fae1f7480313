#include "exp/accumulator.hpp"

#include <cmath>

namespace radiocast::exp {

void Accumulator::add(bool success, double rounds, double deliveries,
                      double transmissions, double informed) {
  ++trials_;
  if (success) {
    ++successes_;
    rounds_stats_.add(rounds);
    rounds_sample_.add(rounds);
  }
  if (!std::isnan(deliveries)) deliveries_.add(deliveries);
  if (!std::isnan(transmissions)) transmissions_.add(transmissions);
  if (!std::isnan(informed)) informed_.add(informed);
}

void Accumulator::add_phases(const radio::PhaseTimers& phases) {
  phases_.traverse_ns += phases.traverse_ns;
  phases_.output_ns += phases.output_ns;
  phases_.recover_ns += phases.recover_ns;
  phases_.enqueue_ns += phases.enqueue_ns;
  phases_.drain_ns += phases.drain_ns;
  phases_.active_listeners += phases.active_listeners;
  phases_.rounds += phases.rounds;
  phases_.rowscan_rounds += phases.rowscan_rounds;
  phases_.idplane_rounds += phases.idplane_rounds;
  phases_.constfold_rounds += phases.constfold_rounds;
}

void Accumulator::add_wall_ms(double wall_ms) { wall_ms_ += wall_ms; }

double Accumulator::success_rate() const {
  return trials_ == 0
             ? 0.0
             : static_cast<double>(successes_) / static_cast<double>(trials_);
}

util::WilsonInterval Accumulator::wilson(double z) const {
  return util::wilson_interval(successes_, trials_, z);
}

double Accumulator::rounds_over_bound() const {
  if (theory_bound_ <= 0.0 || rounds_stats_.count() == 0) return 0.0;
  return rounds_stats_.mean() / theory_bound_;
}

}  // namespace radiocast::exp
