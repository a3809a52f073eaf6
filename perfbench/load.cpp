// perfbench_load — drives one benchmark workload against a real
// defa_serve process and writes every raw measurement to a JSON file.
//
//   perfbench_load --serve PATH --workdir DIR --workload NAME --seed N
//                    --seconds S --trace 0|1 --out FILE
//
// It spawns defa_serve on loopback TCP (with every DEFA_* variable
// removed from its environment, so the server runs its shipped defaults),
// connects through client::Client on the negotiated v2 wire, warms the
// server up, runs the workload's timed window, and reads the server from
// outside: ServeResponse.queue_ms/run_ms, the `metrics`, `backends` and
// `trace` RPCs, and /proc/<pid>.  Requests never name a backend.  After the
// window every distinct result is compared bit for bit with an in-process
// api::Engine pinned to the `reference` backend.
//
// It computes no statistics: perfbench/run.py reduces the raw samples
// (percentiles, span self times, metrics) so that code is testable apart
// from a live server.  Exit code 0 means the file was written; a failed
// correctness check is recorded in the file, not in the exit code.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/engine.h"
#include "client/client.h"
#include "obs/trace.h"
#include "serve/wire/stats.h"

extern char** environ;

namespace {

using defa::api::EvalRequest;
using defa::api::EvalResult;
using defa::api::Json;
using defa::client::Client;
using defa::client::ClientOptions;
using defa::serve::ResponseStatus;
using defa::serve::ServeRequest;
using defa::serve::ServeResponse;

std::int64_t now_us() { return defa::obs::now_us(); }

/// splitmix64: the one generator every workload draws its inputs from.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

// ------------------------------------------------------------ sample book

enum Status : int { kOk = 0, kError = 1, kRejected = 2, kWrong = 3 };

struct Sample {
  int cat = -1;     ///< catalog index of the request
  int client = 0;   ///< closed loop: client thread; open loop: 0
  int rung = 0;     ///< open loop: ladder rung; closed loop: 0
  std::int64_t due_us = 0, send_us = 0, done_us = 0;
  double queue_ms = 0, run_ms = 0;
  int status = kError;
  std::uint64_t trace_id = 0;
};

/// First result seen per catalog entry; every later response for the same
/// entry must be bit-identical to it.  Thread-safe.
class ResultBook {
 public:
  void resize(std::size_t n) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (first_.size() < n) first_.resize(n);
  }
  /// False when `r` differs from the first result recorded for `cat`.
  bool record(int cat, const EvalResult& r) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto& slot = first_[static_cast<std::size_t>(cat)];
    if (!slot.has_value()) {
      slot = r;
      return true;
    }
    return *slot == r;
  }
  [[nodiscard]] const std::vector<std::optional<EvalResult>>& results() const {
    return first_;
  }

 private:
  std::mutex mu_;
  std::vector<std::optional<EvalResult>> first_;
};

int classify(const ServeResponse& r) {
  switch (r.status) {
    case ResponseStatus::kOk: return r.result.has_value() ? kOk : kError;
    case ResponseStatus::kRejectedOverload:
    case ResponseStatus::kRejectedDeadline:
    case ResponseStatus::kRejectedShutdown: return kRejected;
    default: return kError;
  }
}

void settle(Sample& s, const ServeResponse& r, ResultBook& book) {
  s.done_us = now_us();
  s.queue_ms = r.queue_ms;
  s.run_ms = r.run_ms;
  s.status = classify(r);
  if (s.status == kOk && !book.record(s.cat, *r.result)) s.status = kWrong;
}

// --------------------------------------------------------------- workloads

struct Rung {
  double rate = 0;  ///< offered requests per second
  int count = 0;
};

struct Workload {
  std::string name;
  std::vector<std::string> server_flags;
  bool open_loop = false;
  int clients = 1;
  std::vector<EvalRequest> catalog;
  std::vector<int> warmup;                  ///< catalog indices
  std::vector<std::vector<int>> timed;      ///< closed: per client
  std::vector<std::vector<int>> traced;     ///< closed: per client
  // Open loop: rungs in the order they run, arrival offsets (us from rung
  // start) per rung.
  std::vector<Rung> ladder;
  std::vector<std::vector<std::pair<std::int64_t, int>>> timed_arrivals;
  std::vector<std::pair<std::int64_t, int>> traced_arrivals;
  int operating_rung = 0;  ///< rung id of the traced window's samples
  double limit_ms = 0;
  int trace_every = 1;  ///< traced window: every Nth request carries a trace id
};

int add(Workload& w, EvalRequest r) {
  w.catalog.push_back(std::move(r));
  return static_cast<int>(w.catalog.size()) - 1;
}

defa::workload::SceneParams scene_with_seed(std::uint64_t seed) {
  defa::workload::SceneParams p;
  p.seed = seed;
  return p;
}

std::vector<std::vector<int>> deal(const std::vector<int>& order, int clients) {
  std::vector<std::vector<int>> per(static_cast<std::size_t>(clients));
  for (std::size_t i = 0; i < order.size(); ++i) {
    per[i % static_cast<std::size_t>(clients)].push_back(order[i]);
  }
  return per;
}

/// Paper-scale scene: Deformable-DETR's COCO pyramid (100x134 .. 13x17,
/// d_model 256, 8 heads, 4 points) cut to 2 encoder layers, one warm scene
/// (the model's own, the same in every run, so every run does the same
/// work), result memo off, four non-default pruning configurations.  The
/// seed sets the order of the requests.
Workload coco_prune_sweep(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "coco_prune_sweep";
  w.server_flags = {"--no-memo"};
  w.clients = 2;
  defa::ModelConfig m = defa::ModelConfig::deformable_detr();
  m.name = "coco_2layer";
  m.n_layers = 2;
  std::vector<defa::core::PruneConfig> configs;
  {
    defa::core::PruneConfig c = defa::core::PruneConfig::defa_default(m);
    c.label = "DEFA-INT12-nonarrow";
    c.narrow = false;
    configs.push_back(c);
  }
  configs.push_back(defa::core::PruneConfig::only_pap());
  configs.push_back(defa::core::PruneConfig::only_fwp());
  {
    defa::core::PruneConfig c;
    c.label = "PAP+FWP";
    c.pap = true;
    c.fwp = true;
    configs.push_back(c);
  }
  for (const auto& c : configs) {
    EvalRequest r;
    r.model = m;
    r.prune = c;
    add(w, r);
  }
  w.warmup = {0, 1, 2, 3};
  // A fixed count per run (so the tail percentile is fixed), shuffled by
  // the seed.  DEFA-INT12, the configuration the paper deploys, gets twice
  // the weight of the others; with equal weights the median fell exactly
  // between the fast (PAP) and slow (FWP, INT12) latency clusters and
  // jumped between them from run to run.
  const std::vector<int> weights = {2, 1, 1, 1};
  const int per_weight = std::max(8, (seconds * 2 + 2) / 3);
  std::vector<int> order;
  for (int i = 0; i < per_weight; ++i) {
    for (int c = 0; c < 4; ++c) {
      for (int k = 0; k < weights[static_cast<std::size_t>(c)]; ++k) order.push_back(c);
    }
  }
  Rng rng(seed ^ 0xC0C0);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  w.timed = deal(order, w.clients);
  w.traced = w.timed;
  return w;
}

/// Every request brings a new `small` scene with the default DEFA config:
/// each one takes the context-pool write path (scene build, reference
/// build, default-config result) under the server's default cache bounds.
Workload small_scene_stream(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "small_scene_stream";
  w.clients = 4;
  const auto small = [&](std::uint64_t scene_seed) {
    EvalRequest r;
    r.preset = "small";
    r.scene = scene_with_seed(scene_seed);
    return r;
  };
  const std::uint64_t base = 1'000'000 + (seed % 100'000) * 1000;
  w.warmup = {add(w, small(base + 999))};
  // Each new scene stays cached (about 20 MB): the count is capped at 48,
  // about 1 GB of server memory, so a long run cannot exhaust the host's.
  const int n = std::clamp(seconds * 4, 20, 48);
  std::vector<int> order, traced;
  for (int i = 0; i < n; ++i) order.push_back(add(w, small(base + static_cast<std::uint64_t>(i))));
  for (int i = 0; i < n / 2; ++i) {
    traced.push_back(add(w, small(base + 500 + static_cast<std::uint64_t>(i))));
  }
  w.timed = deal(order, w.clients);
  w.traced = deal(traced, w.clients);
  return w;
}

/// Open loop of tiny requests on a fixed ladder of Poisson rates.  60% of
/// the requests repeat an earlier one (a memo hit once it has run); a
/// quarter of the fresh ones ask for the accelerator latency + energy
/// simulation.  With exactly half repeating, the median fell on the edge
/// between the memo-hit and the computed latency clusters and jumped
/// between them from run to run; at 60% it sits among the memo hits.
Workload tiny_open_rates(std::uint64_t seed, int seconds) {
  constexpr double kRepeatShare = 0.6;
  Workload w;
  w.name = "tiny_open_rates";
  w.open_loop = true;
  w.clients = 1;
  // Latency is reported at the operating rate, 4000/s, well below the
  // knee (about 10k-16k/s on a 4-vCPU host, moving with the host's load).
  // Capacity is probed at rates from 8000/s up in steps of 10%, past the
  // knee, in kProbeSweeps upward sweeps, each rate one burst per sweep;
  // run.py takes the majority per rate, so one host stall fails one
  // burst, not the rate.  The host's speed drifts over seconds, so the
  // bursts are interleaved with the operating rate across the whole run
  // instead of measured in one stretch.  The light rungs send fixed
  // counts and the operating rate gets the rest of `seconds`, split into
  // one segment before each burst.  Bursts send 1000 requests: under the
  // server's default admission queue (1024), so an overloaded burst backs
  // up instead of having requests rejected.
  constexpr int kProbeSteps = 10, kProbeSweeps = 3, kBurst = 1000, kLightCount = 2000;
  constexpr double kOperatingRate = 4000;
  w.limit_ms = 20.0;
  std::vector<double> probe;
  for (int k = 0; k < kProbeSteps; ++k) probe.push_back(8000 * std::pow(1.1, k));
  double other_seconds = kLightCount / 1000.0 + kLightCount / 2000.0;
  for (const double rate : probe) other_seconds += kProbeSweeps * kBurst / rate;
  const int segment = std::max(
      100, static_cast<int>((static_cast<double>(seconds) - other_seconds) * kOperatingRate /
                            (kProbeSweeps * kProbeSteps)));
  w.ladder = {Rung{1000, kLightCount}, Rung{2000, kLightCount}};
  w.operating_rung = 2;
  for (int sweep = 0; sweep < kProbeSweeps; ++sweep) {
    for (const double rate : probe) {
      w.ladder.push_back(Rung{kOperatingRate, segment});
      w.ladder.push_back(Rung{rate, kBurst});
    }
  }
  Rng rng(seed ^ 0x7171);
  std::vector<int> fresh;
  const auto draw = [&]() -> int {
    if (!fresh.empty() && rng.uniform() < kRepeatShare) return fresh[rng.below(fresh.size())];
    EvalRequest r;
    r.preset = "tiny";
    r.scene = scene_with_seed(1 + rng.below(8));
    defa::core::PruneConfig c;
    const double u = rng.uniform();
    // Thresholds are drawn from a continuum, so a fresh request never
    // repeats an earlier one by chance: repeats are the explicit 60%.
    if (u < 0.25) {
      c.label = "PAP";
      c.pap = true;
      c.pap_tau = 0.01 + 0.07 * rng.uniform();
    } else if (u < 0.5) {
      c.label = "FWP";
      c.fwp = true;
      c.fwp_k = 0.4 + 0.5 * rng.uniform();
    } else {
      c.label = "PAP+FWP+INT12";
      c.pap = true;
      c.pap_tau = 0.01 + 0.07 * rng.uniform();
      c.fwp = true;
      c.quantize = true;
    }
    r.prune = c;
    if (rng.uniform() < 0.25) {
      r.outputs = defa::api::kFunctional | defa::api::kLatency | defa::api::kEnergy;
    }
    const int idx = add(w, r);
    fresh.push_back(idx);
    return idx;
  };
  // Poisson arrivals scaled so that `count` of them take exactly
  // count / rate seconds: the offered rate of a rung is the same in every
  // run, and only the order of the gaps depends on the seed.
  const auto arrivals = [&](double rate, int count) {
    std::vector<double> gaps(static_cast<std::size_t>(count));
    double total = 0;
    for (double& g : gaps) total += (g = -std::log(1.0 - rng.uniform()));
    const double scale = static_cast<double>(count) / rate / total;
    std::vector<std::pair<std::int64_t, int>> a;
    double t = 0;
    for (const double g : gaps) {
      a.emplace_back(static_cast<std::int64_t>(t * 1e6), draw());
      t += g * scale;
    }
    return a;
  };
  {
    EvalRequest off;
    off.preset = "tiny";
    off.scene = scene_with_seed(424242);
    w.warmup = {add(w, off)};
  }
  for (const Rung& r : w.ladder) w.timed_arrivals.push_back(arrivals(r.rate, r.count));
  // The traced window replays the operating rate with fresh draws; one
  // request in 8 carries a trace id, which keeps every span in the
  // server's per-thread rings (no drops) and the `trace` reply under the
  // protocol's 4 MiB frame limit.
  w.traced_arrivals = arrivals(kOperatingRate, 5000);
  w.trace_every = 8;
  return w;
}

// ------------------------------------------------------------ the server

struct ProcStat {
  long long cpu_ticks = 0;  ///< utime + stime
  long long vm_hwm_kb = 0;
};

ProcStat read_proc(pid_t pid) {
  ProcStat s;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    // Fields after the command name start at #3 (state); utime is #14.
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14 || i == 15) s.cpu_ticks += std::stoll(field);
    }
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) s.vm_hwm_kb = std::stoll(line.substr(6));
  }
  return s;
}

/// One defa_serve child process; the destructor stops and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& serve, const std::string& workdir,
                const std::vector<std::string>& flags, int index) {
    port_file_ = workdir + "/port" + std::to_string(index) + ".txt";
    std::remove(port_file_.c_str());
    argv_ = {serve, "--listen", "0", "--port-file", port_file_};
    argv_.insert(argv_.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : argv_) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The server runs its shipped defaults: no DEFA_* knob leaks in.
    std::vector<char*> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "DEFA_", 5) != 0) env.push_back(*e);
    }
    env.push_back(nullptr);
    const std::string log = workdir + "/serve" + std::to_string(index) + ".log";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    const int rc = posix_spawn(&pid_, serve.c_str(), &fa, nullptr, argv.data(), env.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + serve + ": " + std::strerror(rc));
  }
  ~ServerProcess() { stop(/*drained=*/false); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Block until the port file appears (the listener is up).
  int wait_port(double timeout_s) {
    const std::int64_t deadline = now_us() + static_cast<std::int64_t>(timeout_s * 1e6);
    while (now_us() < deadline) {
      // The server writes "PORT\n"; only a complete line counts.
      std::ifstream pf(port_file_);
      const std::string text((std::istreambuf_iterator<char>(pf)), std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') return std::stoi(text);
      int st = 0;
      if (waitpid(pid_, &st, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("defa_serve exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("defa_serve did not report a port");
  }

  /// Wait for the server to exit: a drained one on its own, else after
  /// SIGTERM (a graceful drain); SIGKILL when either takes too long.
  void stop(bool drained, double timeout_s = 20) {
    if (pid_ <= 0) return;
    for (int sig : {drained ? 0 : SIGTERM, SIGKILL}) {
      if (sig != 0) kill(pid_, sig);
      const std::int64_t deadline = now_us() + static_cast<std::int64_t>(timeout_s * 1e6);
      while (now_us() < deadline) {
        int st = 0;
        if (waitpid(pid_, &st, WNOHANG) == pid_) {
          pid_ = -1;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::vector<std::string>& argv() const { return argv_; }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
  std::vector<std::string> argv_;
};

// --------------------------------------------------------------- running

Json ser_json(const defa::serve::wire::SerSnapshot& s) {
  Json j = Json::object();
  j["encode_ms"] = s.encode_ms;
  j["decode_ms"] = s.decode_ms;
  j["encode_frames"] = s.encode_frames;
  j["decode_frames"] = s.decode_frames;
  j["encode_bytes"] = s.encode_bytes;
  j["decode_bytes"] = s.decode_bytes;
  return j;
}

Json samples_json(const std::vector<Sample>& samples) {
  Json cat = Json::array(), client = Json::array(), rung = Json::array();
  Json due = Json::array(), send = Json::array(), done = Json::array();
  Json queue = Json::array(), run = Json::array(), status = Json::array();
  Json trace = Json::array();
  for (const Sample& s : samples) {
    cat.push_back(s.cat);
    client.push_back(s.client);
    rung.push_back(s.rung);
    due.push_back(s.due_us);
    send.push_back(s.send_us);
    done.push_back(s.done_us);
    queue.push_back(s.queue_ms);
    run.push_back(s.run_ms);
    status.push_back(s.status);
    trace.push_back(s.trace_id == 0 ? std::string() : defa::obs::trace_id_to_hex(s.trace_id));
  }
  Json j = Json::object();
  j["cat"] = std::move(cat);
  j["client"] = std::move(client);
  j["rung"] = std::move(rung);
  j["due_us"] = std::move(due);
  j["send_us"] = std::move(send);
  j["done_us"] = std::move(done);
  j["queue_ms"] = std::move(queue);
  j["run_ms"] = std::move(run);
  j["status"] = std::move(status);
  j["trace_id"] = std::move(trace);
  return j;
}

ServeRequest serve_request(const Workload& w, int cat, std::uint64_t trace_id) {
  ServeRequest r;
  r.id = std::to_string(cat);
  r.request = w.catalog[static_cast<std::size_t>(cat)];
  r.trace_id = trace_id;
  return r;
}

/// Closed loop: each client thread sends its list one request at a time.
/// A request is due when the client's previous one completed.
std::vector<Sample> run_closed(const Workload& w, std::vector<Client>& clients,
                               const std::vector<std::vector<int>>& lists, bool traced,
                               ResultBook& book) {
  std::vector<std::vector<Sample>> per(lists.size());
  std::vector<std::thread> threads;
  std::atomic<int> counter{0};
  for (std::size_t c = 0; c < lists.size(); ++c) {
    threads.emplace_back([&, c] {
      std::int64_t due = now_us();
      for (const int cat : lists[c]) {
        Sample s;
        s.cat = cat;
        s.client = static_cast<int>(c);
        const bool sampled = traced && (counter.fetch_add(1) % w.trace_every == 0);
        s.trace_id = sampled ? defa::obs::new_trace_id() : 0;
        s.due_us = due;
        s.send_us = now_us();
        const ServeResponse r = clients[c].submit(serve_request(w, cat, s.trace_id)).get();
        settle(s, r, book);
        due = s.done_us;
        per[c].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& p : per) all.insert(all.end(), p.begin(), p.end());
  return all;
}

/// Open loop: one generator thread sends every request at its due time on
/// one pipelined connection, whatever is still in flight.  Rungs run one
/// after another; each starts once the previous one has fully completed.
std::vector<Sample> run_open(const Workload& w, Client& client,
                             const std::vector<std::vector<std::pair<std::int64_t, int>>>& rungs,
                             const std::vector<int>& rung_ids, bool traced, ResultBook& book) {
  // Wake the generator within a few microseconds of each due time, not
  // within the default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::size_t total = 0;
  for (const auto& r : rungs) total += r.size();
  std::vector<Sample> samples(total);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = 0;  // guarded by mu
  std::size_t next = 0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const std::int64_t start = now_us() + 2000;
    for (std::size_t i = 0; i < rungs[r].size(); ++i) {
      Sample& s = samples[next++];
      s.cat = rungs[r][i].second;
      s.rung = rung_ids[r];
      s.due_us = start + rungs[r][i].first;
      s.trace_id = traced && i % static_cast<std::size_t>(w.trace_every) == 0
                       ? defa::obs::new_trace_id()
                       : 0;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::microseconds(s.due_us)));
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++pending;
      }
      s.send_us = now_us();
      client.submit_async(serve_request(w, s.cat, s.trace_id),
                          [&s, &book, &mu, &cv, &pending](const ServeResponse& resp) {
                            settle(s, resp, book);
                            const std::lock_guard<std::mutex> lock(mu);
                            if (--pending == 0) cv.notify_all();
                          });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }
  return samples;
}

struct Phase {
  std::string name;
  int sent = 0, ok = 0, failed = 0;
};

Phase count_phase(const std::string& name, const std::vector<Sample>& samples) {
  Phase p;
  p.name = name;
  for (const Sample& s : samples) {
    ++p.sent;
    (s.status == kOk ? p.ok : p.failed) += 1;
  }
  return p;
}

/// One measured window: samples plus the server read from outside before
/// and after it.
Json run_window(const Workload& w, std::vector<Client>& clients, ServerProcess& server,
                bool traced, ResultBook& book, std::vector<Phase>& phases,
                const std::string& name) {
  Json j = Json::object();
  if (traced) (void)clients[0].trace(true);  // start from an empty span buffer
  j["server_before"] = clients[0].metrics().to_json();
  const auto ser_before = defa::serve::wire::SerStats::instance().snapshot(2);
  const ProcStat proc_before = read_proc(server.pid());
  const std::int64_t t0 = now_us();
  std::vector<Sample> samples;
  if (w.open_loop) {
    if (traced) {
      samples = run_open(w, clients[0], {w.traced_arrivals}, {w.operating_rung}, true, book);
    } else {
      std::vector<int> ids;
      for (std::size_t r = 0; r < w.timed_arrivals.size(); ++r) ids.push_back(static_cast<int>(r));
      samples = run_open(w, clients[0], w.timed_arrivals, ids, false, book);
    }
  } else {
    samples = run_closed(w, clients, traced ? w.traced : w.timed, traced, book);
  }
  const std::int64_t t1 = now_us();
  const ProcStat proc_after = read_proc(server.pid());
  const auto ser_after = defa::serve::wire::SerStats::instance().snapshot(2);
  j["server_after"] = clients[0].metrics().to_json();
  j["wall_s"] = static_cast<double>(t1 - t0) * 1e-6;
  j["cpu_ticks"] = static_cast<double>(proc_after.cpu_ticks - proc_before.cpu_ticks);
  j["clk_tck"] = static_cast<double>(sysconf(_SC_CLK_TCK));
  j["vm_hwm_kb"] = static_cast<double>(proc_after.vm_hwm_kb);
  j["client_ser"] = ser_json(ser_after.minus(ser_before));
  j["samples"] = samples_json(samples);
  if (traced) {
    const Json dump = clients[0].trace(true);
    j["dropped_spans"] = dump.at("dropped");
    Json spans = Json::array();
    for (const Json& e : dump.at("traceEvents").items()) {
      if (e.at("ph").as_string() == "X") spans.push_back(e);
    }
    j["spans"] = std::move(spans);
  }
  phases.push_back(count_phase(name, samples));
  return j;
}

// Server start-ups per run; run.py reports their median as setup_s, and
// the last server started is the one measured.
constexpr int kSetups = 3;

/// Spawn, connect and warm up one server; returns its setup time.
double set_up(const Workload& w, const std::string& serve, const std::string& workdir,
              const std::vector<std::string>& flags, int index,
              std::unique_ptr<ServerProcess>& server, std::vector<Client>& clients,
              ResultBook& book, std::vector<Phase>& phases) {
  const std::int64_t t0 = now_us();
  server = std::make_unique<ServerProcess>(serve, workdir, flags, index);
  const int port = server->wait_port(60);
  ClientOptions opt;
  opt.wire = ClientOptions::Wire::kV2;
  clients.clear();
  for (int c = 0; c < w.clients; ++c) clients.push_back(Client::connect_tcp("127.0.0.1", port, opt));
  // Each client sends its share of the warm-up one request at a time, the
  // concurrency of the timed window.
  std::vector<Sample> warm(w.warmup.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < warm.size(); i += clients.size()) {
        warm[i].cat = w.warmup[i];
        warm[i].send_us = warm[i].due_us = now_us();
        settle(warm[i], clients[c].submit(serve_request(w, warm[i].cat, 0)).get(), book);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double setup_s = static_cast<double>(now_us() - t0) * 1e-6;
  phases.push_back(count_phase("setup" + std::to_string(index) + ".warmup", warm));
  return setup_s;
}

/// Bit-for-bit check of every distinct result against an in-process
/// Engine pinned to the reference backend.
Json gate(const Workload& w, const ResultBook& book, std::vector<Phase>& phases) {
  std::vector<EvalRequest> todo;
  std::vector<std::size_t> idx;
  const auto& got = book.results();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].has_value()) {
      todo.push_back(w.catalog[i]);
      idx.push_back(i);
    }
  }
  defa::api::Engine::Options opt;
  opt.backend = "reference";
  opt.memoize_results = false;
  opt.max_contexts = 4;
  defa::api::Engine engine(opt);
  Phase p;
  p.name = "gate.reference";
  Json mismatched = Json::array();
  // Batches keep at most a few contexts alive at once.
  const std::size_t batch = 16;
  for (std::size_t b = 0; b < todo.size(); b += batch) {
    const std::vector<EvalRequest> part(todo.begin() + static_cast<std::ptrdiff_t>(b),
                                        todo.begin() + static_cast<std::ptrdiff_t>(
                                                           std::min(todo.size(), b + batch)));
    const std::vector<EvalResult> want = engine.run_batch(part);
    for (std::size_t k = 0; k < want.size(); ++k) {
      ++p.sent;
      const std::size_t i = idx[b + k];
      if (want[k] == *got[i]) {
        ++p.ok;
      } else {
        ++p.failed;
        mismatched.push_back(static_cast<int>(i));
      }
    }
  }
  phases.push_back(p);
  Json j = Json::object();
  j["distinct"] = static_cast<double>(todo.size());
  j["mismatched"] = std::move(mismatched);
  return j;
}

/// Per distinct request: what the reduction bands and the computed kernel
/// quantities need (config label, reductions, FLOPs, kept points).
Json catalog_json(const Workload& w, const ResultBook& book) {
  Json j = Json::array();
  const auto& got = book.results();
  for (std::size_t i = 0; i < w.catalog.size(); ++i) {
    Json e = Json::object();
    const defa::ModelConfig m = w.catalog[i].resolve_model();
    e["label"] = w.catalog[i].resolve_prune(m).label;
    e["d_head"] = m.d_head();
    if (i < got.size() && got[i].has_value() && got[i]->functional.has_value()) {
      const auto& f = *got[i]->functional;
      e["point_reduction"] = f.point_reduction;
      e["pixel_reduction"] = f.pixel_reduction;
      e["flop_reduction"] = f.flop_reduction;
      e["actual_gflops"] = f.actual_gflops;
      double kept = 0;
      for (const auto& l : f.layers) kept += l.kept_points;
      e["kept_points"] = kept;
    }
    j.push_back(std::move(e));
  }
  return j;
}

int usage() {
  std::cerr << "usage: perfbench_load --serve PATH --workdir DIR --workload NAME "
               "--seed N --seconds S --trace 0|1 --out FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string serve, workdir, workload, out;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--serve") serve = v;
    else if (k == "--workdir") workdir = v;
    else if (k == "--workload") workload = v;
    else if (k == "--out") out = v;
    else if (k == "--seed") seed = std::stoull(v);
    else if (k == "--seconds") seconds = std::stoi(v);
    else if (k == "--trace") trace = v == "1";
    else return usage();
  }
  if (serve.empty() || workdir.empty() || out.empty() || seconds < 1) return usage();
  Workload w;
  if (workload == "coco_prune_sweep") w = coco_prune_sweep(seed, seconds);
  else if (workload == "small_scene_stream") w = small_scene_stream(seed, seconds);
  else if (workload == "tiny_open_rates") w = tiny_open_rates(seed, seconds);
  else {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 2;
  }
  std::vector<std::string> flags = w.server_flags;
  if (trace) flags.push_back("--trace");

  ResultBook book;
  book.resize(w.catalog.size());
  std::vector<Phase> phases;
  std::unique_ptr<ServerProcess> server;
  std::vector<Client> clients;
  Json setup_s = Json::array();
  for (int k = 0; k < kSetups; ++k) {
    setup_s.push_back(set_up(w, serve, workdir, flags, k, server, clients, book, phases));
    if (k + 1 < kSetups) {
      (void)clients[0].drain();
      clients.clear();
      server->stop(/*drained=*/true);
    }
  }
  Json doc = Json::object();
  doc["workload"] = w.name;
  doc["seed"] = static_cast<double>(seed);
  doc["seconds"] = seconds;
  doc["trace"] = trace;
  Json argv_json = Json::array();
  for (const std::string& a : server->argv()) argv_json.push_back(a);
  doc["server_argv"] = std::move(argv_json);
  doc["backends"] = clients[0].call("backends");
  doc["wire_version"] = clients[0].wire_version();
  doc["clients"] = w.clients;
  doc["setup_s"] = std::move(setup_s);
  if (w.open_loop) {
    Json ladder = Json::array();
    for (const Rung& r : w.ladder) {
      Json e = Json::object();
      e["rate"] = r.rate;
      e["count"] = r.count;
      ladder.push_back(std::move(e));
    }
    doc["ladder"] = std::move(ladder);
    doc["operating_rate"] = w.ladder[static_cast<std::size_t>(w.operating_rung)].rate;
    doc["limit_ms"] = w.limit_ms;
  }
  doc["timed"] = run_window(w, clients, *server, false, book, phases, "timed");
  if (trace) {
    doc["trace_every"] = w.trace_every;
    doc["traced"] = run_window(w, clients, *server, true, book, phases, "traced");
  }
  (void)clients[0].drain();
  clients.clear();
  server->stop(/*drained=*/true);
  server.reset();

  doc["gate"] = gate(w, book, phases);
  doc["catalog"] = catalog_json(w, book);
  Json ph = Json::array();
  for (const Phase& p : phases) {
    Json e = Json::object();
    e["name"] = p.name;
    e["sent"] = p.sent;
    e["ok"] = p.ok;
    e["failed"] = p.failed;
    ph.push_back(std::move(e));
  }
  doc["phases"] = std::move(ph);
  std::ofstream f(out);
  f << doc.dump() << "\n";
  if (!f.good()) throw std::runtime_error("cannot write " + out);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench_load: " << e.what() << "\n";
  return 1;
}
