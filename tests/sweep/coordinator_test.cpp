#include "sweep/coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "sweep/cli.hpp"
#include "sweep/export.hpp"
#include "sweep/sweep.hpp"

namespace rtft::sweep {
namespace {

SweepOptions small_options() {
  SweepOptions opts;
  opts.scenario_count = 60;
  opts.workers = 2;
  opts.base_seed = 2006;
  opts.grid.task_counts = {3};
  opts.grid.utilizations = {0.6, 0.9};
  return opts;
}

/// Fresh per-test scratch directory under the system temp root.
std::filesystem::path scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("rtft_coordinator_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// How one scripted worker attempt behaves.
enum class Behavior {
  kComplete,  ///< write a valid shard file, report progress, exit 0.
  kCrash,     ///< die by signal without writing anything.
  kCorrupt,   ///< exit 0 but leave a truncated shard file behind.
  kStall,     ///< never produce output until kill_worker arrives.
  kSlow,      ///< complete, but one fake-clock second after the spawn.
};

/// Deterministic in-process ExecTransport. Workers "run" synchronously
/// at spawn time (a kComplete attempt really computes its shard through
/// run_shard, via the same worker_argv -> apply_sweep_flag round trip
/// the real runner performs), behaviors are scripted per (shard index,
/// attempt), and the clock only moves when the coordinator polls — so
/// straggler timing is exact, not wall-clock dependent.
class FakeTransport final : public ExecTransport {
 public:
  /// script[shard_index][attempt] (0-based); missing entries complete.
  std::map<std::uint64_t, std::vector<Behavior>> script;
  std::uint64_t spawned = 0;

  std::uint64_t spawn(const std::vector<std::string>& argv) override {
    ++spawned;
    const std::uint64_t id = next_id_++;

    // Re-parse the argv exactly as sweep_runner would.
    SweepOptions opts;
    cli::ShardRequest request;
    std::string emit_path;
    bool progress_flag = false;
    for (std::size_t i = 1; i < argv.size(); ++i) {
      const auto value = [&]() -> std::string {
        EXPECT_LT(i + 1, argv.size());
        return argv[++i];
      };
      if (cli::apply_sweep_flag(argv[i], value, opts)) continue;
      if (argv[i] == "--shard") {
        request = cli::parse_shard_request(value());
      } else if (argv[i] == "--emit-shard") {
        emit_path = value();
      } else if (argv[i] == "--progress") {
        progress_flag = true;
      } else {
        ADD_FAILURE() << "unexpected worker flag " << argv[i];
      }
    }
    EXPECT_TRUE(progress_flag);
    EXPECT_FALSE(emit_path.empty());

    const Behavior behavior = behavior_for(request.index);
    switch (behavior) {
      case Behavior::kComplete:
      case Behavior::kSlow: {
        const SweepPlan plan(opts);
        const ShardResult result =
            run_shard(plan.shard(request.index, request.count),
                      plan.options());
        Output done{now_ + Duration::s(1), emit_path, shard_json(result),
                  result.shard.count()};
        if (behavior == Behavior::kSlow) {
          slow_.emplace(id, std::move(done));
        } else {
          finish(id, done);
        }
        break;
      }
      case Behavior::kCrash:
        push_progress(id, 1, 99);  // died mid-shard, some progress seen.
        push_exit(id, -9);
        break;
      case Behavior::kCorrupt: {
        write_file(emit_path, "{\"format\": \"rtft-shard\", \"version\":");
        push_exit(id, 0);
        break;
      }
      case Behavior::kStall:
        stalled_.insert(id);
        break;
    }
    return id;
  }

  std::optional<WorkerEvent> poll(Duration timeout) override {
    for (auto it = slow_.begin(); it != slow_.end();) {
      if (it->second.due > now_) {
        ++it;
        continue;
      }
      finish(it->first, it->second);
      it = slow_.erase(it);
    }
    if (!ready_.empty()) {
      now_ += Duration::ms(1);
      const WorkerEvent ev = ready_.front();
      ready_.pop_front();
      return ev;
    }
    now_ += timeout;  // idle poll: only stalled or slow workers remain.
    return std::nullopt;
  }

  void kill_worker(std::uint64_t worker) override {
    if (stalled_.erase(worker) > 0 || slow_.erase(worker) > 0) {
      push_exit(worker, -9);
    }
  }

  Duration now() override { return now_; }

 private:
  /// What a completing attempt delivers, and when.
  struct Output {
    Duration due;  ///< fake-clock date a kSlow worker finishes.
    std::string emit_path;
    std::string shard_doc;
    std::uint64_t scenarios = 0;
  };

  void finish(std::uint64_t id, const Output& done) {
    write_file(done.emit_path, done.shard_doc);
    push_progress(id, done.scenarios, done.scenarios);
    push_exit(id, 0);
  }

  Behavior behavior_for(std::uint64_t shard_index) {
    const std::size_t attempt = attempts_[shard_index]++;
    const auto it = script.find(shard_index);
    if (it == script.end() || attempt >= it->second.size()) {
      return Behavior::kComplete;
    }
    return it->second[attempt];
  }

  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good()) << path;
  }

  void push_progress(std::uint64_t id, std::uint64_t done,
                     std::uint64_t total) {
    WorkerEvent ev;
    ev.kind = WorkerEvent::Kind::kProgress;
    ev.worker = id;
    ev.progress = {done, total};
    ready_.push_back(ev);
  }

  void push_exit(std::uint64_t id, int code) {
    WorkerEvent ev;
    ev.kind = WorkerEvent::Kind::kExit;
    ev.worker = id;
    ev.exit_code = code;
    ready_.push_back(ev);
  }

  std::deque<WorkerEvent> ready_;
  std::set<std::uint64_t> stalled_;
  std::map<std::uint64_t, Output> slow_;
  std::map<std::uint64_t, std::size_t> attempts_;
  std::uint64_t next_id_ = 1;
  Duration now_;
};

CoordinatorOptions test_copts(const std::filesystem::path& dir) {
  CoordinatorOptions copts;
  copts.runner = "fake-runner";
  copts.output_dir = dir.string();
  copts.shards = 6;
  copts.max_procs = 3;
  copts.retry_budget = 2;
  copts.min_straggler_timeout = Duration::ms(50);
  copts.poll_interval = Duration::ms(20);
  return copts;
}

TEST(Coordinator, HappyPathReproducesTheSingleProcessFingerprint) {
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("happy");
  FakeTransport transport;
  Coordinator coordinator(opts, test_copts(dir), transport);
  const CoordinatorResult result = coordinator.run();

  EXPECT_EQ(result.report.fingerprint, run_sweep(opts).fingerprint);
  EXPECT_EQ(result.report.totals.total, 60u);
  EXPECT_EQ(result.stats.shards, 6u);
  EXPECT_EQ(result.stats.launched, 6u);
  EXPECT_EQ(result.stats.resumed, 0u);
  EXPECT_EQ(result.stats.reissued, 0u);
  EXPECT_EQ(result.stats.invalid_files, 0u);
  // Six checkpoint files remain for a potential resume.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            6);
}

TEST(Coordinator, CrashedWorkerIsReissuedAndTheSweepConverges) {
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("crash");
  FakeTransport transport;
  transport.script[2] = {Behavior::kCrash};  // attempt 2 completes.
  Coordinator coordinator(opts, test_copts(dir), transport);
  const CoordinatorResult result = coordinator.run();

  EXPECT_EQ(result.report.fingerprint, run_sweep(opts).fingerprint);
  EXPECT_EQ(result.stats.launched, 7u);
  EXPECT_EQ(result.stats.reissued, 1u);
}

TEST(Coordinator, CorruptShardFileIsDetectedRemovedAndReissued) {
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("corrupt");
  FakeTransport transport;
  // Exit 0 with a truncated file: success claims mean nothing, only a
  // loadable file does.
  transport.script[1] = {Behavior::kCorrupt};
  std::vector<std::string> log;
  CoordinatorOptions copts = test_copts(dir);
  copts.on_log = [&](const std::string& line) { log.push_back(line); };
  Coordinator coordinator(opts, std::move(copts), transport);
  const CoordinatorResult result = coordinator.run();

  EXPECT_EQ(result.report.fingerprint, run_sweep(opts).fingerprint);
  EXPECT_EQ(result.stats.reissued, 1u);
  EXPECT_EQ(result.stats.invalid_files, 1u);
  bool named = false;
  for (const std::string& line : log) {
    if (line.find("invalid shard file") != std::string::npos &&
        line.find("shard-1.json") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << "the log must name the offending file";
}

TEST(Coordinator, StalledWorkerIsKilledAsStragglerAndReissued) {
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("stall");
  FakeTransport transport;
  transport.script[0] = {Behavior::kStall};
  Coordinator coordinator(opts, test_copts(dir), transport);
  const CoordinatorResult result = coordinator.run();

  // Five shards complete normally (>= 3 samples for the median), the
  // stalled attempt ages past max(4 x median, 50ms) on the fake clock,
  // is killed, and the re-issue completes.
  EXPECT_EQ(result.report.fingerprint, run_sweep(opts).fingerprint);
  EXPECT_EQ(result.stats.straggler_kills, 1u);
  EXPECT_EQ(result.stats.reissued, 1u);
}

TEST(Coordinator, HugeStragglerFactorNeverKillsASlowWorker) {
  // The median times 1e300 lies far past int64 nanoseconds. The timeout
  // saturates instead of wrapping to the 50 ms floor, so an attempt that
  // finishes a fake-clock second late is waited for, not killed.
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("huge_factor");
  FakeTransport transport;
  transport.script[0] = {Behavior::kSlow};
  CoordinatorOptions copts = test_copts(dir);
  copts.straggler_factor = 1e300;
  Coordinator coordinator(opts, std::move(copts), transport);
  const CoordinatorResult result = coordinator.run();

  EXPECT_EQ(result.report.fingerprint, run_sweep(opts).fingerprint);
  EXPECT_EQ(result.stats.straggler_kills, 0u);
  EXPECT_EQ(result.stats.reissued, 0u);
  EXPECT_EQ(transport.spawned, 6u);
}

TEST(Coordinator, RetryBudgetExhaustionAbortsNamingTheShard) {
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("budget");
  FakeTransport transport;
  transport.script[4] = {Behavior::kCrash, Behavior::kCrash, Behavior::kCrash};
  Coordinator coordinator(opts, test_copts(dir), transport);
  try {
    (void)coordinator.run();
    FAIL() << "expected CoordinatorError";
  } catch (const CoordinatorError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shard 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("retry budget"), std::string::npos) << msg;
  }
}

TEST(Coordinator, ResumesFromValidCheckpointsAndRejectsForeignOnes) {
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("resume");
  std::filesystem::create_directories(dir);
  const SweepPlan plan(opts);

  // Shards 0 and 1: genuine checkpoints from a previous run.
  for (std::uint64_t i = 0; i < 2; ++i) {
    write_text(dir / ("shard-" + std::to_string(i) + ".json"),
               shard_json(run_shard(plan.shard(i, 6), plan.options())));
  }
  // Shard 2: valid JSON, but from a *different sweep* (other seed) —
  // must be rejected, removed and recomputed, not silently merged.
  SweepOptions foreign = opts;
  foreign.base_seed = 1;
  const SweepPlan foreign_plan(foreign);
  write_text(dir / "shard-2.json",
             shard_json(run_shard(foreign_plan.shard(2, 6),
                                  foreign_plan.options())));
  // Shard 3: truncated garbage.
  write_text(dir / "shard-3.json", "not json at all");

  FakeTransport transport;
  Coordinator coordinator(opts, test_copts(dir), transport);
  const CoordinatorResult result = coordinator.run();

  EXPECT_EQ(result.report.fingerprint, run_sweep(opts).fingerprint);
  EXPECT_EQ(result.stats.resumed, 2u);
  EXPECT_EQ(result.stats.invalid_files, 2u);
  EXPECT_EQ(result.stats.launched, 4u);  // shards 2..5.
}

TEST(Coordinator, PartitionWiderThanTheSweepRunsEmptyShardsInProcess) {
  SweepOptions opts = small_options();
  opts.scenario_count = 5;
  const auto dir = scratch_dir("wide");
  FakeTransport transport;
  CoordinatorOptions copts = test_copts(dir);
  copts.shards = 12;  // trailing 7 shards are empty.
  Coordinator coordinator(opts, std::move(copts), transport);
  const CoordinatorResult result = coordinator.run();

  EXPECT_EQ(result.report.fingerprint, run_sweep(opts).fingerprint);
  EXPECT_EQ(result.stats.launched, 5u);  // one per non-empty shard only.
  EXPECT_EQ(result.report.totals.total, 5u);
}

TEST(Coordinator, LiveProgressAggregatesAcrossWorkersAndFinishesAtTotal) {
  const SweepOptions opts = small_options();
  const auto dir = scratch_dir("progress");
  FakeTransport transport;
  std::vector<std::uint64_t> done_values;
  std::uint64_t total_seen = 0;
  CoordinatorOptions copts = test_copts(dir);
  copts.on_progress = [&](std::uint64_t done, std::uint64_t total) {
    done_values.push_back(done);
    total_seen = total;
  };
  Coordinator coordinator(opts, std::move(copts), transport);
  (void)coordinator.run();

  EXPECT_EQ(total_seen, 60u);
  ASSERT_FALSE(done_values.empty());
  EXPECT_EQ(done_values.back(), 60u);
}

TEST(Coordinator, ConstructionRejectsUnexpressibleSweeps) {
  SweepOptions opts = small_options();
  opts.grid.detector_costs = {Duration::ns(1'500)};  // not whole us.
  FakeTransport transport;
  EXPECT_THROW(Coordinator(opts, test_copts(scratch_dir("reject")),
                           transport),
               ContractViolation);
}

}  // namespace
}  // namespace rtft::sweep
