// Spreads the measuring thread over every CPU it may run on.
//
// On a shared virtual host the CPUs run at different speeds, and the
// speeds change as neighbours come and go. A run that the scheduler
// leaves on one CPU measures that CPU, so two runs of the same code can
// differ by a third. CpuRotation moves the thread that created it to the
// next CPU of its affinity mask every period, so every run samples every
// CPU alike and its averages move with the host as a whole.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotation {
 public:
  /// Starts rotating the calling thread. Does nothing when it may run on
  /// one CPU only or its affinity cannot be read.
  explicit CpuRotation(std::chrono::milliseconds period);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// While a Hold lives, the rotated thread may run on every CPU of its
  /// original mask, and so may the threads it starts (they inherit it).
  class Hold {
   public:
    explicit Hold(CpuRotation& rotation);
    ~Hold();
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    CpuRotation& rotation_;
  };

 private:
  void rotate();
  void pin(const cpu_set_t& mask);

  pthread_t target_;
  cpu_set_t all_{};
  std::vector<int> cpus_;
  std::chrono::milliseconds period_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  int holds_ = 0;
  std::size_t next_ = 0;
  std::thread thread_;
};

}  // namespace perfbench
