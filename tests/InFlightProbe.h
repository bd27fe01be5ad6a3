//===- InFlightProbe.h - Counting concurrent calls --------------*- C++ -*-===//
///
/// \file
/// Proves that calls overlapped with a count, not a wall-clock ratio, so
/// the proof holds on a loaded or sanitized host.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_TESTS_INFLIGHTPROBE_H
#define LOCUS_TESTS_INFLIGHTPROBE_H

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace locus {
namespace test {

/// Records the peak number of calls in flight at once. A call holds until
/// the peak reaches Want or \p Hold passes, so Want concurrent callers show
/// a peak of Want however slow the host is, and a serial caller never shows
/// more than 1. Calls on \p Exempt (say, a search thread that also runs
/// the baseline and the best re-run one at a time) never hold.
class InFlightProbe {
public:
  explicit InFlightProbe(
      int Want, std::chrono::milliseconds Hold = std::chrono::seconds(5),
      std::thread::id Exempt = {})
      : Want(Want), Hold(Hold), Exempt(Exempt) {}

  void enter() {
    std::unique_lock<std::mutex> L(M);
    Peak = std::max(Peak, ++InFlight);
    Cv.notify_all();
    if (std::this_thread::get_id() != Exempt)
      Cv.wait_for(L, Hold, [this] { return Peak >= Want; });
    --InFlight;
  }

  int peak() {
    std::lock_guard<std::mutex> L(M);
    return Peak;
  }

private:
  const int Want;
  const std::chrono::milliseconds Hold;
  const std::thread::id Exempt;
  std::mutex M;
  std::condition_variable Cv;
  int InFlight = 0;
  int Peak = 0;
};

} // namespace test
} // namespace locus

#endif // LOCUS_TESTS_INFLIGHTPROBE_H
