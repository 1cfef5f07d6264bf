#include "util/cancel.hpp"

#include <cmath>

namespace tr::util {

CancellationToken CancellationToken::cancellable() {
  CancellationToken token;
  token.state_ = std::make_shared<State>();
  return token;
}

CancellationToken CancellationToken::with_deadline_ms(double ms) {
  // A NaN deadline would never latch (every clock comparison is false)
  // and an infinite one silently degrades to "no deadline" — both are
  // caller bugs, so fail loudly instead of arming a token that can
  // never fire (ISSUE 8: a daemon must not accept a deadline it cannot
  // enforce).
  require(std::isfinite(ms), "CancellationToken: deadline must be finite, got ",
          ms, " ms");
  CancellationToken token = cancellable();
  token.state_->has_deadline = true;
  token.state_->deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(ms));
  return token;
}

void CancellationToken::request_cancel() const noexcept {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

bool CancellationToken::should_cancel() const noexcept {
  if (state_ == nullptr) return false;
  if (state_->cancelled.load(std::memory_order_relaxed)) return true;
  // Latch an expired deadline into the flag so later polls skip the
  // clock read (the flag is monotone: checkpoints never disagree).
  if (state_->has_deadline &&
      std::chrono::steady_clock::now() >= state_->deadline) {
    state_->cancelled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace tr::util
