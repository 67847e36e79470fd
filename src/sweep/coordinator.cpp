#include "sweep/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/assert.hpp"
#include "common/file.hpp"
#include "sweep/cli.hpp"
#include "sweep/export.hpp"

namespace rtft::sweep {

namespace {

[[noreturn]] void transport_failure(const char* what) {
  throw CoordinatorError(std::string(what) + " failed: " +
                         std::strerror(errno));
}

/// waitpid(2) restarted across EINTR. A benign signal (SIGCHLD from a
/// sibling, a profiler's SIGPROF, a debugger detach) delivered while the
/// coordinator blocks in waitpid must not abandon the reap: the child
/// would linger as a zombie and its exit status would be lost, turning
/// an innocuous interruption into a phantom worker failure.
int reap(int pid, int* status) {
  for (;;) {
    const int rc = ::waitpid(pid, status, 0);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

std::string describe_exit(int exit_code) {
  if (exit_code == 0) return "exit 0";
  if (exit_code < 0) return "signal " + std::to_string(-exit_code);
  return "exit " + std::to_string(exit_code);
}

}  // namespace

// ---------------------------------------------------------------------------
// ProcessTransport: local child processes over fork/exec + poll(2).
// ---------------------------------------------------------------------------

ProcessTransport::ProcessTransport()
    : epoch_(std::chrono::steady_clock::now()) {}

ProcessTransport::~ProcessTransport() {
  for (Child& child : children_) {
    ::kill(child.pid, SIGKILL);
    int status = 0;
    reap(child.pid, &status);
    ::close(child.stderr_fd);
  }
}

std::uint64_t ProcessTransport::spawn(const std::vector<std::string>& argv) {
  RTFT_EXPECTS(!argv.empty(), "spawn needs at least the binary path");
  int fds[2];
  if (::pipe(fds) != 0) transport_failure("pipe()");
  // Both ends close-on-exec: the read end must not leak into this or
  // any sibling worker; the write end survives into the child only as
  // the dup2 copy on fd 2.
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);

  const int pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    transport_failure("fork()");
  }
  if (pid == 0) {
    // Child: stderr onto the pipe, stdout discarded (workers print
    // their human summary there; the coordinator speaks for the run).
    ::dup2(fds[1], STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    std::_Exit(127);  // exec failed; surfaces as a nonzero kExit.
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  Child child;
  child.id = next_id_++;
  child.pid = pid;
  child.stderr_fd = fds[0];
  children_.push_back(std::move(child));
  return children_.back().id;
}

bool ProcessTransport::drain(Child& child) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(child.stderr_fd, buf, sizeof(buf));
    if (n > 0) {
      child.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                        [&](const ProgressUpdate& update) {
                          WorkerEvent ev;
                          ev.kind = WorkerEvent::Kind::kProgress;
                          ev.worker = child.id;
                          ev.progress = update;
                          ready_.push_back(ev);
                        });
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      // Treat a read error like EOF: fall through and reap.
    }
    // EOF: the worker closed stderr — it is exiting. Reap it (blocking;
    // the window between closing stderr and process exit is tiny).
    child.parser.finish([&](const ProgressUpdate& update) {
      WorkerEvent ev;
      ev.kind = WorkerEvent::Kind::kProgress;
      ev.worker = child.id;
      ev.progress = update;
      ready_.push_back(ev);
    });
    int status = 0;
    reap(child.pid, &status);
    WorkerEvent ev;
    ev.kind = WorkerEvent::Kind::kExit;
    ev.worker = child.id;
    if (WIFEXITED(status)) {
      ev.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      ev.exit_code = -WTERMSIG(status);
    } else {
      ev.exit_code = 126;  // neither exited nor signaled: report failure.
    }
    ready_.push_back(ev);
    ::close(child.stderr_fd);
    return true;
  }
}

std::optional<WorkerEvent> ProcessTransport::poll(Duration timeout) {
  const Duration deadline = now() + timeout;
  for (;;) {
    if (!ready_.empty()) {
      const WorkerEvent ev = ready_.front();
      ready_.pop_front();
      return ev;
    }
    if (children_.empty()) return std::nullopt;
    const Duration remaining = deadline - now();
    if (remaining.is_negative()) return std::nullopt;
    std::vector<pollfd> pfds;
    pfds.reserve(children_.size());
    for (const Child& child : children_) {
      pfds.push_back({child.stderr_fd, POLLIN, 0});
    }
    // Round the wait up to a whole millisecond so a sub-ms remainder
    // cannot busy-spin.
    const int wait_ms = static_cast<int>(
        std::min<std::int64_t>((remaining.count() + 999'999) / 1'000'000,
                               60'000));
    const int rc = ::poll(pfds.data(), pfds.size(), wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      transport_failure("poll()");
    }
    if (rc == 0) return std::nullopt;
    // Drain readable children; reaped ones leave the vector.
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::uint64_t id = children_[i].id;
      if (drain(children_[i])) {
        children_.erase(
            std::find_if(children_.begin(), children_.end(),
                         [id](const Child& c) { return c.id == id; }));
        // Indices shifted; deliver what we have and re-poll for the rest.
        break;
      }
    }
  }
}

void ProcessTransport::kill_worker(std::uint64_t worker) {
  for (const Child& child : children_) {
    if (child.id == worker) {
      ::kill(child.pid, SIGKILL);
      return;
    }
  }
}

Duration ProcessTransport::now() {
  return Duration::ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count());
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

Coordinator::Coordinator(const SweepOptions& sweep, CoordinatorOptions options,
                         ExecTransport& transport)
    : plan_(sweep), opts_(std::move(options)), transport_(transport) {
  RTFT_EXPECTS(!opts_.runner.empty(), "coordinator needs a runner binary");
  RTFT_EXPECTS(!opts_.output_dir.empty(),
               "coordinator needs an output directory");
  RTFT_EXPECTS(opts_.max_procs > 0,
               "coordinator needs at least one worker slot");
  RTFT_EXPECTS(opts_.retry_budget >= 0, "retry budget must be >= 0");
  RTFT_EXPECTS(opts_.poll_interval.is_positive(),
               "poll interval must be positive");
  if (opts_.shards == 0) {
    opts_.shards = 4 * static_cast<std::uint64_t>(opts_.max_procs);
  }
  // Fail on the constructing thread if the sweep cannot travel through
  // the runner CLI (sub-us grid durations, a seed past int64...):
  // better than every worker computing a foreign sweep.
  (void)cli::worker_argv(opts_.runner, plan_.options(),
                         plan_.shard(0, opts_.shards), "validate");

  tasks_.resize(opts_.shards);
  for (std::uint64_t i = 0; i < opts_.shards; ++i) {
    tasks_[i].spec = plan_.shard(i, opts_.shards);
    tasks_[i].path = opts_.output_dir + "/shard-" + std::to_string(i) +
                     ".json";
  }
  stats_.shards = opts_.shards;
}

void Coordinator::log(const std::string& line) {
  if (opts_.on_log) opts_.on_log(line);
}

void Coordinator::emit_progress() {
  if (!opts_.on_progress) return;
  std::uint64_t done = done_scenarios_;
  for (const ShardTask& t : tasks_) {
    if (t.state == State::kRunning) done += t.live_done;
  }
  opts_.on_progress(done, plan_.scenario_count());
}

bool Coordinator::adopt_shard_file(ShardTask& task, bool resumed) {
  try {
    ShardResult loaded = load_shard_json(read_file(task.path));
    if (!detail::same_scenario_identity(plan_.options(), loaded.options) ||
        loaded.shard.begin != task.spec.begin ||
        loaded.shard.end != task.spec.end) {
      throw ShardError(
          "the file belongs to a different sweep or a different "
          "partition of it");
    }
    merger_.add(std::move(loaded));
    task.state = State::kDone;
    done_scenarios_ += task.spec.count();
    if (resumed) ++stats_.resumed;
    return true;
  } catch (const ShardError& e) {
    ++stats_.invalid_files;
    log("shard " + std::to_string(task.spec.index) + ": invalid shard file '" +
        task.path + "': " + e.what());
    std::remove(task.path.c_str());
    return false;
  } catch (const std::runtime_error&) {
    return false;  // an unreadable checkpoint is an absent one.
  }
}

void Coordinator::launch(ShardTask& task) {
  // A stale partial file from a crashed attempt must not be mistaken
  // for this attempt's output.
  std::remove(task.path.c_str());
  ++task.attempts;
  ++stats_.launched;
  task.live_done = 0;
  task.kill_sent = false;
  task.worker = transport_.spawn(
      cli::worker_argv(opts_.runner, plan_.options(), task.spec, task.path));
  task.started = transport_.now();
  task.state = State::kRunning;
  log("shard " + std::to_string(task.spec.index) + " [" +
      std::to_string(task.spec.begin) + ", " + std::to_string(task.spec.end) +
      "): launched attempt " + std::to_string(task.attempts) + " as worker " +
      std::to_string(task.worker));
}

void Coordinator::handle_exit(ShardTask& task, int exit_code) {
  const Duration elapsed = transport_.now() - task.started;
  task.state = State::kPending;  // until the file proves otherwise.
  // The shard file is the sole proof of completion: a clean exit with a
  // bad file is a failure, and a killed worker that finished its write
  // first still counts (exactly what checkpoint resume adopts anyway).
  if (adopt_shard_file(task, /*resumed=*/false)) {
    completed_elapsed_.push_back(elapsed);
    log("shard " + std::to_string(task.spec.index) + ": completed (" +
        describe_exit(exit_code) + ", " + to_string(elapsed) + ")");
    emit_progress();
    return;
  }
  log("shard " + std::to_string(task.spec.index) + ": attempt " +
      std::to_string(task.attempts) + " failed (" + describe_exit(exit_code) +
      ") without a valid shard file");
  if (task.attempts >= 1 + opts_.retry_budget) {
    throw CoordinatorError(
        "shard " + std::to_string(task.spec.index) + " failed " +
        std::to_string(task.attempts) + " attempt(s) (retry budget " +
        std::to_string(opts_.retry_budget) + " exhausted); last worker " +
        describe_exit(exit_code));
  }
  ++stats_.reissued;
  log("shard " + std::to_string(task.spec.index) + ": re-issuing (attempt " +
      std::to_string(task.attempts + 1) + " of " +
      std::to_string(1 + opts_.retry_budget) + ")");
  emit_progress();  // the lost attempt's live progress is gone.
}

std::optional<Duration> Coordinator::straggler_timeout() const {
  if (opts_.straggler_factor <= 0.0 || completed_elapsed_.size() < 3) {
    return std::nullopt;
  }
  std::vector<Duration> sorted = completed_elapsed_;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const Duration median = sorted[sorted.size() / 2];
  const double scaled =
      static_cast<double>(median.count()) * opts_.straggler_factor;
  // Saturate: casting a product past int64 nanoseconds is undefined.
  if (!(scaled < 0x1p63)) return Duration::max();
  return std::max(Duration::ns(static_cast<std::int64_t>(scaled)),
                  opts_.min_straggler_timeout);
}

void Coordinator::check_stragglers() {
  const std::optional<Duration> timeout = straggler_timeout();
  if (!timeout) return;
  const Duration t_now = transport_.now();
  for (ShardTask& task : tasks_) {
    if (task.state != State::kRunning || task.kill_sent) continue;
    // Only kill what the budget can still re-issue: past the budget a
    // slow worker is the only hope left, so let it run.
    if (task.attempts >= 1 + opts_.retry_budget) continue;
    const Duration age = t_now - task.started;
    if (age <= *timeout) continue;
    task.kill_sent = true;
    ++stats_.straggler_kills;
    log("shard " + std::to_string(task.spec.index) + ": straggler (" +
        to_string(age) + " > timeout " + to_string(*timeout) +
        "), killing worker " + std::to_string(task.worker) +
        " for re-issue");
    transport_.kill_worker(task.worker);
  }
}

Coordinator::ShardTask* Coordinator::task_of_worker(std::uint64_t worker) {
  for (ShardTask& task : tasks_) {
    if (task.state == State::kRunning && task.worker == worker) return &task;
  }
  return nullptr;
}

CoordinatorResult Coordinator::run() {
  std::error_code ec;
  std::filesystem::create_directories(opts_.output_dir, ec);
  if (ec) {
    throw CoordinatorError("cannot create output directory '" +
                           opts_.output_dir + "': " + ec.message());
  }

  // Checkpoint resume: adopt every valid shard file, compute empty
  // shards in-process (a partition wider than the scenario count leaves
  // trailing empty ranges; no worker needed for zero scenarios).
  for (ShardTask& task : tasks_) {
    if (task.spec.count() == 0) {
      merger_.add(run_shard(task.spec, plan_.options()));
      task.state = State::kDone;
      continue;
    }
    if (std::filesystem::exists(task.path)) {
      (void)adopt_shard_file(task, /*resumed=*/true);
    }
  }
  log("resumed " + std::to_string(stats_.resumed) + " of " +
      std::to_string(stats_.shards) + " shard(s) from checkpoint files in '" +
      opts_.output_dir + "'");
  emit_progress();

  for (;;) {
    // Keep every slot busy with pending work.
    std::size_t running = 0;
    for (const ShardTask& task : tasks_) {
      if (task.state == State::kRunning) ++running;
    }
    for (ShardTask& task : tasks_) {
      if (running >= opts_.max_procs) break;
      if (task.state != State::kPending) continue;
      launch(task);
      ++running;
    }
    if (running == 0) break;  // nothing running, nothing pending: done.

    if (const std::optional<WorkerEvent> ev =
            transport_.poll(opts_.poll_interval)) {
      ShardTask* task = task_of_worker(ev->worker);
      if (task != nullptr) {
        if (ev->kind == WorkerEvent::Kind::kProgress) {
          task->live_done = ev->progress.done;
          emit_progress();
        } else {
          handle_exit(*task, ev->exit_code);
        }
      }
      // Events from unknown workers (an attempt already written off)
      // are dropped.
    }
    check_stragglers();
  }

  for (const ShardTask& task : tasks_) {
    RTFT_ASSERT(task.state == State::kDone,
                "coordinator loop exited with unfinished shards");
  }
  CoordinatorResult out;
  out.report = merger_.finish();
  out.stats = stats_;
  return out;
}

}  // namespace rtft::sweep
