#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace pb {

namespace {

std::mutex g_mu;
std::set<pid_t> g_live;  // spawned, not yet reaped

ExitInfo to_info(int wstatus, const struct rusage& ru) {
  ExitInfo info;
  info.status = WIFEXITED(wstatus)     ? WEXITSTATUS(wstatus)
                : WIFSIGNALED(wstatus) ? 128 + WTERMSIG(wstatus)
                                       : -1;
  info.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  info.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return info;
}

}  // namespace

void nap(double s) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (nanosleep(&ts, &ts) != 0) {
  }
}

pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path, const std::vector<std::string>& env) {
  std::vector<std::string> envs;
  for (char** e = environ; *e; ++e) envs.emplace_back(*e);
  envs.insert(envs.end(), env.begin(), env.end());
  std::vector<char*> cargv, cenv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  for (const auto& e : envs) cenv.push_back(const_cast<char*>(e.c_str()));
  cenv.push_back(nullptr);

  std::lock_guard<std::mutex> lk(g_mu);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    setpgid(0, 0);
    const int in = open("/dev/null", O_RDONLY);
    const int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0 || err < 0) _exit(127);
    dup2(in, 0);
    dup2(out, 1);
    dup2(err, 2);
    execve(cargv[0], cargv.data(), cenv.data());
    _exit(127);
  }
  setpgid(pid, pid);  // also from the parent, so kill(-pid) never races
  g_live.insert(pid);
  return pid;
}

bool try_reap(pid_t pid, ExitInfo& info) {
  siginfo_t si{};
  if (waitid(P_PID, static_cast<id_t>(pid), &si, WEXITED | WNOHANG | WNOWAIT) != 0 ||
      si.si_pid != pid)
    return false;
  // The group may still hold grandchildren the child left behind; the
  // unreaped child keeps the group id from being reused meanwhile.
  kill(-pid, SIGKILL);
  int ws = 0;
  struct rusage ru{};
  wait4(pid, &ws, 0, &ru);
  info = to_info(ws, ru);
  std::lock_guard<std::mutex> lk(g_mu);
  g_live.erase(pid);
  return true;
}

ExitInfo wait_for(pid_t pid, double timeout_s) {
  ExitInfo info;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() <
         timeout_s) {
    if (try_reap(pid, info)) return info;
    nap(0.001);
  }
  kill(-pid, SIGKILL);
  int ws = 0;
  struct rusage ru{};
  wait4(pid, &ws, 0, &ru);
  {
    std::lock_guard<std::mutex> lk(g_mu);
    g_live.erase(pid);
  }
  info = to_info(ws, ru);
  return info;
}

ExitInfo stop(pid_t pid, double grace_s) {
  kill(-pid, SIGTERM);
  return wait_for(pid, grace_s);
}

void stop_all() {
  std::set<pid_t> live;
  {
    std::lock_guard<std::mutex> lk(g_mu);
    live = g_live;
  }
  for (const pid_t pid : live) (void)wait_for(pid, 0.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace pb
