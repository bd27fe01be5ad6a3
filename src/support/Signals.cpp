//===- Signals.cpp - Graceful-shutdown signal flag ------------------------===//

#include "src/support/Signals.h"

#include <csignal>

namespace locus {
namespace support {

namespace {

std::atomic<bool> ShutdownFlag{false};

extern "C" void shutdownHandler(int Sig) {
  ShutdownFlag.store(true, std::memory_order_relaxed);
  // Re-arm to the default disposition: a second SIGINT/SIGTERM kills the
  // process even if the cooperative stop is stuck in a long evaluation.
  std::signal(Sig, SIG_DFL);
}

} // namespace

void installShutdownFlag() {
  struct sigaction SA;
  SA.sa_handler = shutdownHandler;
  sigemptyset(&SA.sa_mask);
  // No SA_RESTART: blocking syscalls must return EINTR so loops observe
  // the flag instead of sleeping through it.
  SA.sa_flags = 0;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

const std::atomic<bool> *shutdownFlag() { return &ShutdownFlag; }

} // namespace support
} // namespace locus
