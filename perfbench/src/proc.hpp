#pragma once
// Child processes of the benchmark (sflyd, the fleet bench): spawned in
// their own process group so that a stop reaches every process they start,
// reaped with wait4 so their CPU time and peak RSS (their own waited-for
// children included) are measured.

#include <sys/types.h>

#include <string>
#include <vector>

namespace pb {

struct ExitInfo {
  int status = -1;  // exit code, or 128 + signal
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// fork/exec `argv` with stdout and stderr redirected to the given files
/// (stdin from /dev/null) and `env` ("K=V") added to the environment.
/// Throws std::runtime_error if the fork fails.
pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path, const std::vector<std::string>& env = {});

/// Non-blocking reap: true once the child has ended (info filled).
bool try_reap(pid_t pid, ExitInfo& info);

/// Wait up to `timeout_s` for the child; past it, kill its process group
/// and wait for it.  Returns the exit info (status -1 after a timeout kill
/// is reported as 128 + SIGKILL).
ExitInfo wait_for(pid_t pid, double timeout_s);

/// SIGTERM the child's group, wait up to `grace_s`, then SIGKILL it.
ExitInfo stop(pid_t pid, double grace_s);

/// Kill and reap every child still running (error paths and exit).
void stop_all();

/// Whole file as a string ("" when missing).
[[nodiscard]] std::string read_file(const std::string& path);

/// Sleep for `s` seconds.
void nap(double s);

}  // namespace pb
