// Wall-clock stopwatch for the benchmark harness.
#ifndef XUPD_COMMON_STOPWATCH_H_
#define XUPD_COMMON_STOPWATCH_H_

#include <chrono>

namespace xupd {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace xupd

#endif  // XUPD_COMMON_STOPWATCH_H_
