#include "cpu_rotation.hpp"

namespace perfbench {

CpuRotation::CpuRotation(std::chrono::milliseconds period)
    : target_(pthread_self()), period_(period) {
  if (pthread_getaffinity_np(target_, sizeof all_, &all_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
  }
  if (cpus_.size() > 1) thread_ = std::thread([this] { rotate(); });
}

CpuRotation::~CpuRotation() {
  if (!thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_one();
  thread_.join();
  pin(all_);
}

void CpuRotation::pin(const cpu_set_t& mask) {
  // A failure leaves the thread where it is, which only costs steadiness.
  pthread_setaffinity_np(target_, sizeof mask, &mask);
}

void CpuRotation::rotate() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, period_, [this] { return stop_; })) {
    if (holds_ > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pin(one);
  }
}

CpuRotation::Hold::Hold(CpuRotation& rotation) : rotation_(rotation) {
  if (!rotation_.thread_.joinable()) return;
  const std::lock_guard<std::mutex> lock(rotation_.mutex_);
  ++rotation_.holds_;
  rotation_.pin(rotation_.all_);
}

CpuRotation::Hold::~Hold() {
  if (!rotation_.thread_.joinable()) return;
  const std::lock_guard<std::mutex> lock(rotation_.mutex_);
  --rotation_.holds_;
}

}  // namespace perfbench
