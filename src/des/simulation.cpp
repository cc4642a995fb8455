#include "des/simulation.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace ll::des {

EventId Simulation::schedule_at(double when, Callback fn, std::uint64_t tag) {
  if (!std::isfinite(when)) {
    throw std::invalid_argument("schedule_at: non-finite time");
  }
  if (when < now_) {
    throw std::invalid_argument("schedule_at: time " + std::to_string(when) +
                                " is before now " + std::to_string(now_));
  }
  if (!fn) {
    throw std::invalid_argument("schedule_at: empty callback");
  }
  const EventId id = next_id_++;
  queue_->push(when, id);
  arena_.create(id, std::move(fn), tag);
  ++pending_;
  if (observer_) observer_->on_schedule(when, id, tag);
  return id;
}

EventId Simulation::schedule_in(double delay, Callback fn, std::uint64_t tag) {
  if (!std::isfinite(delay) || delay < 0.0) {
    throw std::invalid_argument("schedule_in: negative or non-finite delay");
  }
  return schedule_at(now_ + delay, std::move(fn), tag);
}

bool Simulation::cancel(EventId id) {
  if (id == kNoEvent || !arena_.live(id)) return false;
  std::uint64_t tag = 0;
  (void)arena_.take(id, tag);  // destroys the callback, frees the page
  --pending_;
  ++cancelled_;
  if (observer_) observer_->on_cancel(id, tag);
  purge_if_needed();
  return true;
}

void Simulation::purge_if_needed() {
  const std::size_t dead = queue_->size() - pending_;
  if (dead <= pending_ || dead <= kPurgeFloor) return;
  // Each purge costs O(dead + live) = O(dead) and leaves no tombstone, and
  // the next needs more than max(live, kPurgeFloor) new ones: amortized
  // O(1) per cancel. Pops follow the (time, id) order of what remains, so
  // dropping dead entries cannot change which event fires next.
  queue_->purge([this](std::uint64_t id) { return arena_.live(id); });
  ++purges_;
}

SimObserver* Simulation::set_observer(SimObserver* observer) {
  return std::exchange(observer_, observer);
}

const QueuedEvent* Simulation::settle_top() {
  const QueuedEvent* top;
  while ((top = queue_->peek()) != nullptr && !arena_.live(top->id)) {
    queue_->pop();  // lazily drop cancelled events
  }
  return top;
}

bool Simulation::step() {
  const QueuedEvent* top = settle_top();
  if (top == nullptr) return false;
  const QueuedEvent entry = *top;
  queue_->pop();
  std::uint64_t tag = 0;
  Callback fn = arena_.take(entry.id, tag);
  --pending_;
  purge_if_needed();  // before the callback: it may schedule or cancel
  now_ = entry.time;
  ++fired_;
  // Notify before invoking so the digest records the fire even if the
  // callback throws, and so observer state is current for re-entrant
  // schedule/cancel calls made from inside the callback.
  if (observer_) observer_->on_fire(entry.time, entry.id, tag);
  fn();
  // Re-read observer_: the callback may have re-registered or detached it.
  if (observer_) observer_->on_fire_done(entry.time, entry.id, tag);
  return true;
}

std::size_t Simulation::run() {
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

std::size_t Simulation::run_until(double horizon) {
  if (!std::isfinite(horizon)) {
    throw std::invalid_argument("run_until: non-finite horizon");
  }
  if (horizon < now_) {
    throw std::invalid_argument("run_until: horizon " +
                                std::to_string(horizon) + " is before now " +
                                std::to_string(now_));
  }
  std::size_t fired = 0;
  const QueuedEvent* top;
  while ((top = settle_top()) != nullptr && top->time <= horizon) {
    step();
    ++fired;
  }
  now_ = horizon;
  return fired;
}

}  // namespace ll::des
