#include "sim/simulation.hpp"

#include <limits>

namespace resex::sim {

Simulation::~Simulation() {
  for (auto& [addr, handle] : detached_) {
    (void)addr;
    handle.destroy();
  }
}

void Simulation::throw_past() {
  throw std::logic_error("Simulation::schedule_at: time is in the past");
}

void Simulation::spawn(Task task) {
  Task::Handle h = task.release();
  if (!h) throw std::logic_error("Simulation::spawn: empty task");
  auto& promise = h.promise();
  promise.is_detached = true;
  promise.detached.sim = this;
  promise.detached.registration = h.address();
  detached_.emplace(h.address(), h);
  schedule_in(0, [h] { h.resume(); });
}

namespace detail {
void notify_detached_done(const DetachedHooks& hooks,
                          std::exception_ptr error) noexcept {
  Simulation* sim = hooks.sim;
  if (sim == nullptr) return;
  sim->detached_.erase(hooks.registration);
  if (error && !sim->task_error_) sim->task_error_ = error;
}
}  // namespace detail

void Simulation::rethrow_pending_error() {
  if (task_error_) {
    auto err = std::exchange(task_error_, nullptr);
    std::rethrow_exception(err);
  }
}

bool Simulation::step_until(SimTime limit) {
  if (!queue_.fire_next(limit, now_)) return false;
  ++events_processed_;
  rethrow_pending_error();
  return true;
}

bool Simulation::step() {
  return step_until(std::numeric_limits<SimTime>::max());
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(SimTime t) {
  while (step_until(t)) {
  }
  if (t > now_) now_ = t;
}

}  // namespace resex::sim
