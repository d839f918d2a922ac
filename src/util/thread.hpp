// Thin std::thread wrapper. The source lint (ci/lint.sh) rejects raw
// std::thread outside src/util/ so thread creation stays auditable in one
// place alongside the annotated mutex wrappers; this type is deliberately
// the same move-only join/joinable surface as std::thread, nothing more.
#pragma once

#include <thread>
#include <utility>

namespace pp {

class Thread {
 public:
  Thread() noexcept = default;
  template <typename F, typename... Args>
  explicit Thread(F&& f, Args&&... args)
      : t_(std::forward<F>(f), std::forward<Args>(args)...) {}

  Thread(Thread&&) noexcept = default;
  Thread& operator=(Thread&&) noexcept = default;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  bool joinable() const noexcept { return t_.joinable(); }
  void join() { t_.join(); }

  static unsigned hardware_concurrency() noexcept {
    return std::thread::hardware_concurrency();
  }

 private:
  std::thread t_;
};

}  // namespace pp
