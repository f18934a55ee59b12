// aalign_fleet: one-command fleet launcher (docs/deployment.md). Spawns
// N shard-scoped aalignd processes over one shared mmap index plus a
// gateway front end, waits for every shard to accept, and supervises the
// set:
//
//   aalign_fleet --db-index db.aidx --shards 4 --port 7731
//
//   client ──> gateway (port P) ──> shard 0 (port P+1, --shard 0/N)
//                              ──> shard 1 (port P+2, --shard 1/N)
//                              ...
//
// SIGTERM/SIGINT run the drain cascade: the GATEWAY drains first (so
// in-flight scatters complete against still-alive shards), then each
// shard drains. A shard that dies while running is logged and left down -
// the gateway keeps answering with incomplete=true partial results; a
// dead gateway tears the fleet down (exit 1).
//
// Options:
//   --db-index FILE    prebuilt index, shared read-only by every shard
//   --shards N         shard process count                      [2]
//   --port P           gateway port; shard i listens on P+1+i   [7731]
//   --bind ADDR        listen address for every process         [127.0.0.1]
//   --aalignd PATH     aalignd binary                 [sibling of argv[0]]
//   --matrix NAME / --threads N / --executors N   forwarded to the shards
//   --merge-budget-ms N / --connect-timeout-ms N  forwarded to the gateway
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/parse.h"

namespace {

// Async-signal-safe by construction (docs/concurrency.md, enforced by
// clang-tidy's bugprone-signal-handler): the handler only stores to a
// volatile sig_atomic_t; the supervisor loop polls it and drives the
// gateway-then-shards teardown cascade from normal context.
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "aalign_fleet: %s (try --help)\n", msg.c_str());
  std::exit(2);
}

// `text`, the value of numeric flag `flag`, as a T in [lo, hi]; a usage
// error otherwise.
template <class T>
T flag_number(const std::string& flag, const std::string& text, T lo, T hi) {
  if (const auto v = aalign::util::parse_number(text, lo, hi)) return *v;
  die(flag + " wants a number in [" + std::to_string(lo) + ", " +
      std::to_string(hi) + "] (got '" + text + "')");
}

void print_help() {
  std::printf(
      "aalign_fleet - spawn a sharded aalignd fleet (docs/deployment.md)\n"
      "  aalign_fleet --db-index db.aidx --shards 4 --port 7731\n\n"
      "  --db-index FILE  prebuilt index (aalign_index build), required\n"
      "  --shards N       shard process count              [2]\n"
      "  --port P         gateway port; shard i on P+1+i   [7731]\n"
      "  --bind ADDR      listen address                   [127.0.0.1]\n"
      "  --aalignd PATH   aalignd binary        [sibling of aalign_fleet]\n"
      "  --matrix NAME / --threads N / --executors N   (shards)\n"
      "  --merge-budget-ms N / --connect-timeout-ms N  (gateway)\n");
}

std::string sibling_aalignd(const char* argv0) {
  // Prefer the invoking path's directory; fall back to /proc/self/exe.
  std::string self(argv0 != nullptr ? argv0 : "");
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    self = buf;
  }
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "aalignd";
  return self.substr(0, slash + 1) + "aalignd";
}

pid_t spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "aalign_fleet: exec %s: %s\n", argv[0],
                 std::strerror(errno));
    std::_Exit(127);
  }
  return pid;
}

// True once `port` accepts a TCP connection (bounded poll loop).
bool wait_accepting(const std::string& addr, std::uint16_t port,
                    int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline && g_stop == 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    ::close(fd);
    if (rc == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

// SIGTERM + bounded wait; SIGKILL as the last resort.
void drain(pid_t pid, const char* what, int timeout_ms) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "aalign_fleet: %s did not drain in time, killing\n",
               what);
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_index, bind_addr = "127.0.0.1";
  std::string aalignd_path = sibling_aalignd(argv[0]);
  std::string matrix, threads, executors;
  std::string merge_budget_ms, connect_timeout_ms;
  std::size_t shards = 2;
  int port = 7731;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    if (a == "-h" || a == "--help") {
      print_help();
      return 0;
    } else if (a == "--db-index") {
      db_index = next();
    } else if (a == "--shards") {
      shards = flag_number<std::size_t>(a, next(), 1, 1024);
    } else if (a == "--port") {
      port = flag_number<int>(a, next(), 1, 65535);
    } else if (a == "--bind") {
      bind_addr = next();
    } else if (a == "--aalignd") {
      aalignd_path = next();
    } else if (a == "--matrix") {
      matrix = next();
    } else if (a == "--threads") {
      // Checked here against aalignd's ranges, then passed on.
      threads = std::to_string(flag_number<int>(a, next(), 0, 1024));
    } else if (a == "--executors") {
      executors = std::to_string(flag_number<int>(a, next(), 1, 1024));
    } else if (a == "--merge-budget-ms") {
      merge_budget_ms =
          std::to_string(flag_number<std::int64_t>(a, next(), 0, 3600000));
    } else if (a == "--connect-timeout-ms") {
      connect_timeout_ms =
          std::to_string(flag_number<std::int64_t>(a, next(), 1, 3600000));
    } else {
      die("unknown option '" + a + "'");
    }
  }
  if (db_index.empty()) die("need --db-index FILE");
  if (port + static_cast<int>(shards) > 65535) {
    die("--port leaves no room for " + std::to_string(shards) +
        " shard ports above it");
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // ---- Shards: aalignd --db-index X --shard i/N --port P+1+i -------------
  std::vector<pid_t> shard_pids(shards, -1);
  for (std::size_t i = 0; i < shards; ++i) {
    std::vector<std::string> args = {
        aalignd_path, "--db-index", db_index,
        "--shard", std::to_string(i) + "/" + std::to_string(shards),
        "--bind", bind_addr,
        "--port", std::to_string(port + 1 + static_cast<int>(i))};
    if (!matrix.empty()) { args.push_back("--matrix"); args.push_back(matrix); }
    if (!threads.empty()) { args.push_back("--threads"); args.push_back(threads); }
    if (!executors.empty()) {
      args.push_back("--executors");
      args.push_back(executors);
    }
    shard_pids[i] = spawn(args);
  }
  for (std::size_t i = 0; i < shards; ++i) {
    const std::uint16_t p =
        static_cast<std::uint16_t>(port + 1 + static_cast<int>(i));
    if (!wait_accepting(bind_addr, p, 30000)) {
      std::fprintf(stderr,
                   "aalign_fleet: shard %zu never accepted on port %u\n", i,
                   static_cast<unsigned>(p));
      for (pid_t pid : shard_pids) drain(pid, "shard", 5000);
      return 1;
    }
  }

  // ---- Gateway: aalignd --gateway --backend ... --port P ------------------
  std::vector<std::string> gw_args = {aalignd_path, "--gateway", "--bind",
                                      bind_addr, "--port",
                                      std::to_string(port)};
  for (std::size_t i = 0; i < shards; ++i) {
    gw_args.push_back("--backend");
    gw_args.push_back(bind_addr + ":" +
                      std::to_string(port + 1 + static_cast<int>(i)));
  }
  if (!merge_budget_ms.empty()) {
    gw_args.push_back("--merge-budget-ms");
    gw_args.push_back(merge_budget_ms);
  }
  if (!connect_timeout_ms.empty()) {
    gw_args.push_back("--connect-timeout-ms");
    gw_args.push_back(connect_timeout_ms);
  }
  const pid_t gw_pid = spawn(gw_args);
  if (!wait_accepting(bind_addr, static_cast<std::uint16_t>(port), 30000)) {
    std::fprintf(stderr, "aalign_fleet: gateway never accepted on port %d\n",
                 port);
    drain(gw_pid, "gateway", 5000);
    for (pid_t pid : shard_pids) drain(pid, "shard", 5000);
    return 1;
  }
  std::printf("aalign_fleet: %zu shards + gateway ready on %s:%d\n", shards,
              bind_addr.c_str(), port);
  std::fflush(stdout);

  // ---- Supervision --------------------------------------------------------
  int exit_code = 0;
  while (g_stop == 0) {
    int status = 0;
    const pid_t done = ::waitpid(-1, &status, WNOHANG);
    if (done == gw_pid) {
      std::fprintf(stderr,
                   "aalign_fleet: gateway exited unexpectedly, stopping\n");
      exit_code = 1;
      break;
    }
    if (done > 0) {
      for (std::size_t i = 0; i < shards; ++i) {
        if (shard_pids[i] == done) {
          // Degraded but alive: the gateway marks affected responses
          // incomplete until the operator restarts the shard.
          std::fprintf(stderr,
                       "aalign_fleet: shard %zu died; fleet continues "
                       "with partial results\n",
                       i);
          shard_pids[i] = -1;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  // ---- Drain cascade: gateway first, then the shards ----------------------
  std::printf("aalign_fleet: draining (gateway, then shards)\n");
  std::fflush(stdout);
  if (exit_code == 0) drain(gw_pid, "gateway", 15000);
  for (pid_t pid : shard_pids) drain(pid, "shard", 15000);
  std::printf("aalign_fleet: drained, exiting\n");
  return exit_code;
}
