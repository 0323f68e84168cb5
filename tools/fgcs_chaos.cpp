// fgcs_chaos — replay named fault-injection scenarios deterministically.
//
//   fgcs_chaos --scenario revocation|churn|planner|registry|service|net|
//                         ingest|gossip
//              [--seed S] [--machines N] [--days D] [--jobs J]
//              [--reactors N] [--failpoints SPEC]
//
// Each scenario generates a synthetic fleet from --seed, arms a scenario
// default FGCS_FAILPOINTS spec (overridable with --failpoints), submits
// --jobs guest jobs, and prints the outcomes followed by the exact failpoint
// activity (FailpointStats). Same flags → byte-identical output, which makes
// the tool usable both for debugging degraded modes and as a regression
// oracle in scripts. It is the only place a replayed scenario is written:
// each row of the fgcs_chaos_replay table in tests/CMakeLists.txt runs one
// flag set twice, in separate processes, and diffs the bytes.
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fgcs.hpp"
#include "ishare/gossip.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace fgcs;

struct ScenarioSetup {
  std::vector<MachineTrace> traces;
  std::vector<Gateway> gateways;
  Registry registry;
  std::shared_ptr<PredictionService> service;
};

ScenarioSetup build_fleet(std::vector<MachineTrace> traces,
                          ServiceConfig service_config = {}) {
  ScenarioSetup setup;
  setup.traces = std::move(traces);
  setup.service = std::make_shared<PredictionService>(service_config);
  setup.gateways.reserve(setup.traces.size());
  for (const MachineTrace& trace : setup.traces)
    setup.gateways.emplace_back(trace, Thresholds{}, setup.service);
  for (Gateway& gateway : setup.gateways) setup.registry.publish(gateway);
  return setup;
}

std::vector<MachineTrace> lab_fleet(std::uint64_t seed, int machines,
                                    int days) {
  return generate_fleet(WorkloadParams{}, seed, machines, days, "chaos");
}

void print_outcome(int job, const JobOutcome& outcome) {
  std::printf(
      "job %02d: %s attempts=%d failures=%d checkpoints=%d response=%llds\n",
      job, outcome.completed ? "completed" : "FAILED", outcome.attempts,
      outcome.failures, outcome.checkpoints_taken,
      static_cast<long long>(outcome.response_time()));
  std::string machines;
  for (const std::string& id : outcome.machines_used)
    machines += (machines.empty() ? "" : ",") + id;
  std::printf("job %02d: machines=%s\n", job,
              machines.empty() ? "-" : machines.c_str());
}

/// Prints a replicated job: its plan (planner only), its outcome, and the
/// exact CPU spent plus the planned replica ids.
void print_replicated(int job, const ReplicatedOutcome& outcome) {
  std::string planned;
  if (outcome.plan.has_value()) {
    const ReplicationPlan& plan = *outcome.plan;
    std::printf("job %02d: plan %-8s replicas=%zu achieved=%.17g "
                "target=%.17g\n",
                job, plan.feasible ? "feasible" : "FALLBACK",
                plan.replicas.size(), plan.achieved_availability,
                plan.target_availability);
    for (const ReplicaCandidate& replica : plan.replicas)
      planned += (planned.empty() ? " plan=" : ",") + replica.machine_id;
  }
  std::printf(
      "job %02d: %s winner=%s replicas=%d lost=%d cpu=%.0f response=%llds\n",
      job, outcome.completed ? "completed" : "FAILED",
      outcome.completed ? outcome.winning_machine.c_str() : "-",
      outcome.replicas_started, outcome.replicas_failed,
      outcome.total_cpu_spent,
      static_cast<long long>(outcome.response_time()));
  std::printf("job %02d: cpu=%.17g%s\n", job, outcome.total_cpu_spent,
              planned.c_str());
}

void print_stats() {
  const FailpointStats stats = Failpoints::instance().stats();
  std::printf("failpoints (%llu fires total):\n",
              static_cast<unsigned long long>(stats.total_fires()));
  for (const FailpointCounters& point : stats.points)
    std::printf("  %-32s evaluations=%llu fires=%llu\n", point.name.c_str(),
                static_cast<unsigned long long>(point.evaluations),
                static_cast<unsigned long long>(point.fires));
}

/// The guest-job loop of the scheduling scenarios. Job j needs
/// `cpu_seconds` of CPU, is submitted on the last trace day at
/// 08:00 + (j mod 8) h and gives up 12 h later; `run` executes and prints it
/// and returns whether it completed. A non-null `service` prints its
/// counters before the tally: only order-invariant ones, because with a
/// batch fanned out over the thread pool *which* request warms the cache
/// (and so the hit/miss split) depends on worker interleaving, while
/// lookups, batches and invalidations are fixed by the scenario alone.
int run_jobs(int days, int jobs, double cpu_seconds,
             const PredictionService* service,
             const std::function<bool(int, const GuestJobSpec&, SimTime,
                                      SimTime)>& run) {
  int completed = 0;
  for (int j = 0; j < jobs; ++j) {
    const GuestJobSpec job{.job_id = "job" + std::to_string(j),
                           .cpu_seconds = cpu_seconds,
                           .mem_mb = 64};
    const SimTime submit =
        (days - 1) * kSecondsPerDay + (8 + j % 8) * kSecondsPerHour;
    completed += run(j, job, submit, submit + 12 * kSecondsPerHour) ? 1 : 0;
  }
  if (service != nullptr) {
    const ServiceStats stats = service->stats();
    std::printf("service: lookups=%llu batches=%llu invalidations=%llu\n",
                static_cast<unsigned long long>(stats.lookups),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.invalidations));
  }
  std::printf("completed %d/%d\n", completed, jobs);
  return completed == 0 ? 1 : 0;
}

/// run_jobs' step for a JobScheduler placement.
auto scheduled_step(const JobScheduler& scheduler,
                    CheckpointMode mode = CheckpointMode::kNone,
                    CheckpointConfig checkpoint = {}) {
  return [&scheduler, mode, checkpoint](int j, const GuestJobSpec& job,
                                        SimTime submit, SimTime give_up) {
    const JobOutcome outcome =
        scheduler.run_job(job, submit, give_up, mode, checkpoint);
    print_outcome(j, outcome);
    return outcome.completed;
  };
}

/// run_jobs' step for a ReplicatingScheduler placement.
auto replicated_step(const ReplicatingScheduler& scheduler) {
  return [&scheduler](int j, const GuestJobSpec& job, SimTime submit,
                      SimTime give_up) {
    const ReplicatedOutcome outcome = scheduler.run_job(job, submit, give_up);
    print_replicated(j, outcome);
    return outcome.completed;
  };
}

/// Jobs resubmitted with exponential backoff while replicas are revoked
/// mid-execution. The registry scenario runs the same loop; its faults hit
/// the registry enumeration/lookup path instead of running guests.
int run_revocation(std::uint64_t seed, int machines, int days, int jobs) {
  ScenarioSetup setup = build_fleet(lab_fleet(seed, machines, days));
  SchedulerConfig config;
  config.backoff_factor = 2.0;
  config.retry_delay = 120;
  const JobScheduler scheduler(setup.registry, setup.service, config);
  CheckpointConfig checkpoint;
  checkpoint.fixed_interval = 1800;
  checkpoint.cost_seconds = 30;
  return run_jobs(
      days, jobs, 3600, nullptr,
      scheduled_step(scheduler, CheckpointMode::kFixed, checkpoint));
}

/// Batched placement through a shared PredictionService under forced
/// invalidation churn and latency injection.
int run_service(std::uint64_t seed, int machines, int days, int jobs) {
  ScenarioSetup setup = build_fleet(lab_fleet(seed, machines, days));
  const JobScheduler scheduler(setup.registry, setup.service);
  return run_jobs(days, jobs, 1800, setup.service.get(),
                  scheduled_step(scheduler));
}

/// Replicated placement racing the same churn a single placement faces.
int run_churn(std::uint64_t seed, int machines, int days, int jobs) {
  ScenarioSetup setup = build_fleet(lab_fleet(seed, machines, days));
  const ReplicatingScheduler scheduler(setup.registry, setup.service,
                                       machines < 3 ? machines : 3);
  return run_jobs(days, jobs, 3600, nullptr, replicated_step(scheduler));
}

/// Availability-target replication planning on a transient-VM fleet under a
/// replica-churn storm: replicas vanish between placement and launch, and
/// sporadic estimation outages thin the candidate pool. Every job's plan is
/// printed — the planner either meets the target from the machines it can
/// still predict, or reports an explicit fallback. The service is pinned to
/// max_threads=1 so the every-N estimate faults hit the same probes
/// regardless of FGCS_THREADS.
int run_planner(std::uint64_t seed, int machines, int days, int jobs) {
  ScenarioSetup setup = build_fleet(
      generate_preemption_fleet(PreemptionParams{}, seed, machines, days, "vm"),
      ServiceConfig{.max_threads = 1});
  PlannerConfig planner;
  planner.target_availability = 0.95;
  planner.max_replicas = machines < 4 ? machines : 4;
  planner.fallback_replicas = machines < 2 ? machines : 2;
  const ReplicatingScheduler scheduler(setup.registry, setup.service, planner);
  return run_jobs(days, jobs, 3600, setup.service.get(),
                  replicated_step(scheduler));
}

/// The wire scenarios' jobs: job j sends one two-item batch (machines j and
/// j+1, windows staggered by j) through `client` and compares every served
/// Prediction bit for bit with an in-process reference, one line per item.
/// `before_job(j)` runs first. Returns the number of all-identical jobs.
template <typename Client, typename BeforeJob>
int serve_jobs(Client& client, const std::vector<MachineTrace>& traces,
               int jobs, BeforeJob&& before_job) {
  PredictionService reference;
  int completed = 0;
  for (int j = 0; j < jobs; ++j) {
    before_job(j);
    std::vector<net::WireRequestItem> items;
    std::vector<const MachineTrace*> item_traces;
    for (int k = 0; k < 2; ++k) {
      const MachineTrace& trace =
          traces[static_cast<std::size_t>(j + k) % traces.size()];
      net::WireRequestItem item;
      item.machine_key = trace.machine_id();
      item.request.target_day = trace.day_count();
      item.request.window.start_of_day =
          (8 + (j + 5 * k) % 10) * kSecondsPerHour;
      item.request.window.length = (1 + j % 4) * kSecondsPerHour;
      items.push_back(std::move(item));
      item_traces.push_back(&trace);
    }
    const std::vector<Prediction> served = client.predict_batch(items);
    bool identical = true;
    for (std::size_t i = 0; i < served.size(); ++i) {
      const Prediction expected =
          reference.predict(*item_traces[i], items[i].request);
      identical = identical &&
                  served[i].temporal_reliability ==
                      expected.temporal_reliability &&
                  served[i].p_absorb == expected.p_absorb;
      std::printf("job %02d.%zu: %-12s TR %.17g %s\n", j, i,
                  items[i].machine_key.c_str(),
                  served[i].temporal_reliability,
                  identical ? "bit-identical" : "MISMATCH");
    }
    completed += identical ? 1 : 0;
  }
  return completed;
}

/// Loopback prediction serving under a failpoint storm: dropped accepts,
/// 3-byte reads, 16-byte writes, and corrupt-flagged frames. The client's
/// whole-batch retry must drive every job to completion with Predictions
/// bit-identical to an in-process service, and — because every net failpoint
/// is evaluated per connection or per frame, never per read()/write() — the
/// printed counters and FailpointStats replay byte-identically.
int run_net(std::uint64_t seed, int machines, int days, int jobs,
            unsigned reactors) {
  const std::vector<MachineTrace> traces = lab_fleet(seed, machines, days);

  net::ServerConfig server_config;
  // Connection placement is deterministic round-robin; with a sequential
  // client that keeps the whole report — including the per-reactor counter
  // split printed below — byte-identical run to run.
  server_config.reactors = reactors;
  net::PredictionServer server(server_config,
                               std::make_shared<PredictionService>());
  for (const MachineTrace& trace : traces) server.add_trace(trace);
  server.start();
  if (reactors > 1)
    std::printf("reactors=%u\n", server.reactor_count());

  net::ClientConfig client_config;
  client_config.port = server.port();
  client_config.max_attempts = 10;
  client_config.backoff.retry_delay = 2;      // ms: keep the replay quick
  client_config.backoff.max_retry_delay = 50; // ms
  net::PredictionClient client(client_config);
  const int completed = serve_jobs(client, traces, jobs, [](int) {});

  // stop() joins the serving thread, so the snapshot below can't race the
  // loop's final counter increments (the last write lands before the join).
  server.stop();
  const net::ServerStats stats = server.stats();
  // `active` and timing-derived values stay out of this line; everything
  // printed is pinned by the failpoint spec + seed alone.
  std::printf("server: accepted=%llu dropped=%llu frames=%llu requests=%llu "
              "predictions=%llu responses=%llu errors=%llu rx=%llu tx=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.predictions),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.errors),
              static_cast<unsigned long long>(stats.rx_bytes),
              static_cast<unsigned long long>(stats.tx_bytes));
  if (reactors > 1) {
    // The per-reactor split is part of the replay contract: round-robin
    // hand-off + sequential driving pin which reactor serviced what.
    const std::vector<net::ServerStats> shards = server.reactor_stats();
    for (std::size_t i = 0; i < shards.size(); ++i)
      std::printf("reactor %zu: frames=%llu requests=%llu responses=%llu "
                  "errors=%llu\n",
                  i, static_cast<unsigned long long>(shards[i].frames),
                  static_cast<unsigned long long>(shards[i].requests),
                  static_cast<unsigned long long>(shards[i].responses),
                  static_cast<unsigned long long>(shards[i].errors));
  }
  const net::ClientStats& client_stats = client.stats();
  std::printf("client: batches=%llu attempts=%llu retries=%llu "
              "reconnects=%llu server_errors=%llu\n",
              static_cast<unsigned long long>(client_stats.batches),
              static_cast<unsigned long long>(client_stats.attempts),
              static_cast<unsigned long long>(client_stats.retries),
              static_cast<unsigned long long>(client_stats.reconnects),
              static_cast<unsigned long long>(client_stats.server_errors));
  std::printf("completed %d/%d\n", completed, jobs);
  return completed == jobs ? 0 : 1;
}

/// Mid-stream ingestion under a failpoint storm: append frames dropped
/// before decoding, day rollups injected to fail, plus the net scenario's
/// transport faults. The client's idempotent whole-batch retries (duplicate
/// samples skipped by the store) must still land every machine's history
/// byte-identical to its source trace, and predictions served over the
/// streamed history must match an in-process service on the originals bit
/// for bit. Every counter printed is pinned by the spec + seed, so the run
/// replays byte-identically (the chaos_replay_ingest* ctest rows).
int run_ingest(std::uint64_t seed, int machines, int days, int jobs,
               unsigned reactors) {
  WorkloadParams params;
  params.sampling_period = 60;  // coarse period keeps the replay quick
  const std::vector<MachineTrace> traces =
      generate_fleet(params, seed, machines, days, "chaos");

  net::ServerConfig server_config;
  server_config.reactors = reactors;
  server_config.ingest = true;
  net::PredictionServer server(server_config,
                               std::make_shared<PredictionService>());
  server.start();
  if (reactors > 1)
    std::printf("reactors=%u\n", server.reactor_count());

  net::ClientConfig client_config;
  client_config.port = server.port();
  client_config.max_attempts = 12;
  client_config.backoff.retry_delay = 2;      // ms: keep the replay quick
  client_config.backoff.max_retry_delay = 50; // ms
  net::PredictionClient client(client_config);

  bool all_ok = true;
  for (std::size_t m = 0; m < traces.size(); ++m) {
    const MachineTrace& trace = traces[m];
    const std::size_t per_day = trace.samples_per_day();
    const std::uint64_t total =
        static_cast<std::uint64_t>(trace.day_count()) * per_day;
    // Deterministic per-machine batch sizing that straddles day boundaries.
    const std::size_t batch = per_day / 3 + 211 * m;

    net::WireAppendRequest request;
    request.machine_id = trace.machine_id();
    request.epoch_day_of_week =
        static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
    request.sampling_period = trace.sampling_period();
    request.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());

    std::uint64_t accepted = 0, duplicates = 0, index = 0, generation = 0;
    while (index < total) {
      const std::uint64_t count = std::min<std::uint64_t>(batch, total - index);
      request.first_sample_index = index;
      request.samples.clear();
      for (std::uint64_t i = index; i < index + count; ++i)
        request.samples.push_back(
            trace.at(static_cast<std::int64_t>(i / per_day), i % per_day));
      const net::WireAppendAck ack = client.append_samples(request);
      accepted += ack.accepted;
      duplicates += ack.duplicates;
      generation = ack.generation;
      index = ack.next_index;
    }

    // The survived storm must leave the server's history byte-identical.
    const std::shared_ptr<const MachineTrace> snap =
        server.store()->snapshot(trace.machine_id());
    bool identical = snap != nullptr && snap->day_count() == trace.day_count();
    for (std::int64_t d = 0; identical && d < trace.day_count(); ++d)
      for (std::size_t i = 0; identical && i < per_day; ++i)
        identical = snap->at(d, i) == trace.at(d, i);
    all_ok = all_ok && identical &&
             generation == static_cast<std::uint64_t>(trace.day_count());
    std::printf("stream %-8s accepted=%llu duplicates=%llu gen=%llu %s\n",
                trace.machine_id().c_str(),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(duplicates),
                static_cast<unsigned long long>(generation),
                identical ? "history-identical" : "HISTORY MISMATCH");
  }

  // Predictions served over the streamed history, verified bit for bit
  // against an in-process reference on the source traces.
  PredictionService reference;
  int completed = 0;
  for (int j = 0; j < jobs; ++j) {
    const MachineTrace& trace = traces[static_cast<std::size_t>(j) %
                                       traces.size()];
    net::WireRequestItem item;
    item.machine_key = trace.machine_id();
    item.request.target_day = trace.day_count();
    item.request.window.start_of_day = (7 + j % 12) * kSecondsPerHour;
    item.request.window.length = (1 + j % 3) * kSecondsPerHour;
    const Prediction served = client.predict(item);
    const Prediction expected = reference.predict(trace, item.request);
    const bool identical =
        served.temporal_reliability == expected.temporal_reliability &&
        served.p_absorb == expected.p_absorb;
    std::printf("job %02d: %-8s TR %.17g %s\n", j, item.machine_key.c_str(),
                served.temporal_reliability,
                identical ? "bit-identical" : "MISMATCH");
    completed += identical ? 1 : 0;
  }

  server.stop();
  const net::ServerStats stats = server.stats();
  std::printf("server: accepted=%llu frames=%llu requests=%llu appends=%llu "
              "samples=%llu duplicates=%llu closed=%llu retired=%llu "
              "errors=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.appends),
              static_cast<unsigned long long>(stats.append_samples),
              static_cast<unsigned long long>(stats.append_duplicates),
              static_cast<unsigned long long>(stats.days_closed),
              static_cast<unsigned long long>(stats.days_retired),
              static_cast<unsigned long long>(stats.errors));
  if (reactors > 1) {
    const std::vector<net::ServerStats> shards = server.reactor_stats();
    for (std::size_t i = 0; i < shards.size(); ++i)
      std::printf("reactor %zu: frames=%llu appends=%llu samples=%llu "
                  "closed=%llu errors=%llu\n",
                  i, static_cast<unsigned long long>(shards[i].frames),
                  static_cast<unsigned long long>(shards[i].appends),
                  static_cast<unsigned long long>(shards[i].append_samples),
                  static_cast<unsigned long long>(shards[i].days_closed),
                  static_cast<unsigned long long>(shards[i].errors));
  }
  const net::ClientStats& client_stats = client.stats();
  std::printf("client: appends=%llu batches=%llu attempts=%llu retries=%llu "
              "reconnects=%llu server_errors=%llu\n",
              static_cast<unsigned long long>(client_stats.appends),
              static_cast<unsigned long long>(client_stats.batches),
              static_cast<unsigned long long>(client_stats.attempts),
              static_cast<unsigned long long>(client_stats.retries),
              static_cast<unsigned long long>(client_stats.reconnects),
              static_cast<unsigned long long>(client_stats.server_errors));
  std::printf("completed %d/%d\n", completed, jobs);
  return all_ok && completed == jobs ? 0 : 1;
}

/// Decentralized-registry storm, two phases (DESIGN.md §11).
///
/// Phase 1 drives a 3-node GossipMesh through a seed-pinned churn script —
/// bootstrap, partition + heal, crash + restart — with the gossip.drop /
/// gossip.delay failpoints mangling the anti-entropy traffic. Every phase
/// must re-converge all nodes to one membership + ring digest within a
/// bounded round count, and the printed digests, convergence rounds, agent
/// counters, and FailpointStats replay byte-identically from the same flags
/// (the chaos_replay_gossip* ctest rows).
///
/// Phase 2 proves the sharded serving path: three PredictionServers take
/// the converged ring (their identities and real bound ports), a
/// ShardedPredictionClient routes --jobs batches across them — through a
/// deliberately staled ring every third job, healing via kWrongShard — and
/// every served TR must be bit-identical to an in-process single-registry
/// reference.
int run_gossip(std::uint64_t seed, int machines, int days, int jobs,
               unsigned reactors) {
  constexpr int kNodes = 3;
  const auto node_id = [](int i) { return "reg" + std::to_string(i); };

  GossipConfig gossip_config;
  gossip_config.seed = seed;
  GossipMesh mesh(gossip_config);
  for (int i = 0; i < kNodes; ++i) mesh.add_node(node_id(i));
  mesh.connect_all();

  const auto print_phase = [&mesh](const char* phase, int rounds) {
    if (rounds < 0) {
      std::printf("phase %-10s DID NOT CONVERGE (rounds=%llu)\n", phase,
                  static_cast<unsigned long long>(mesh.rounds()));
      return false;
    }
    std::printf("phase %-10s converged rounds=%llu digest=%016llx ring=%zu\n",
                phase, static_cast<unsigned long long>(mesh.rounds()),
                static_cast<unsigned long long>(mesh.digest()),
                mesh.agent("reg0").ring().size());
    return true;
  };

  bool converged = print_phase("bootstrap", mesh.run_until_converged(64));

  // Partition reg0 away from {reg1, reg2}, churn inside the split, heal.
  mesh.partition({{"reg0"}, {"reg1", "reg2"}});
  for (int r = 0; r < 8; ++r) mesh.run_round();
  mesh.heal();
  converged = print_phase("heal", mesh.run_until_converged(128)) && converged;

  // Crash reg1 until phi declares it dead, then bring it back: the fresh
  // incarnation must beat the tombstone everywhere.
  mesh.stop("reg1");
  for (int r = 0; r < 24; ++r) mesh.run_round();
  std::printf("phase %-10s reg1 seen as %s by reg0\n", "crash",
              [&mesh] {
                for (const MemberState& m : mesh.agent("reg0").members())
                  if (m.node_id == "reg1") return to_string(m.health);
                return "unknown";
              }());
  mesh.restart("reg1");
  converged =
      print_phase("restart", mesh.run_until_converged(128)) && converged;

  for (int i = 0; i < kNodes; ++i) {
    const GossipAgentStats& stats = mesh.agent(node_id(i)).stats();
    std::printf("agent %s: rounds=%llu syncs_sent=%llu syncs_recv=%llu "
                "acks=%llu updates=%llu refutations=%llu suspicions=%llu "
                "deaths=%llu\n",
                node_id(i).c_str(),
                static_cast<unsigned long long>(stats.rounds),
                static_cast<unsigned long long>(stats.syncs_sent),
                static_cast<unsigned long long>(stats.syncs_received),
                static_cast<unsigned long long>(stats.acks_received),
                static_cast<unsigned long long>(stats.records_updated),
                static_cast<unsigned long long>(stats.refutations),
                static_cast<unsigned long long>(stats.suspicions),
                static_cast<unsigned long long>(stats.deaths));
  }
  if (!converged) return 1;

  // -------------------------------------------------------------------------
  // Phase 2: serve through the converged ring over the real wire.
  const std::vector<MachineTrace> traces = lab_fleet(seed, machines, days);

  std::vector<std::unique_ptr<net::PredictionServer>> servers;
  for (int i = 0; i < kNodes; ++i) {
    net::ServerConfig server_config;
    server_config.reactors = reactors;
    server_config.node_id = node_id(i);
    servers.push_back(std::make_unique<net::PredictionServer>(
        server_config, std::make_shared<PredictionService>()));
    // Every node holds every trace: the ring decides who *answers*, which
    // is exactly what makes a wrong ring observable as kWrongShard rather
    // than as a missing machine.
    for (const MachineTrace& trace : traces) servers.back()->add_trace(trace);
    servers.back()->start();
  }
  if (reactors > 1)
    std::printf("reactors=%u\n", servers[0]->reactor_count());

  std::vector<RingMember> members;
  for (int i = 0; i < kNodes; ++i)
    members.push_back(RingMember{node_id(i), "127.0.0.1",
                                 servers[static_cast<std::size_t>(i)]->port()});
  const HashRing ring(members, /*vnodes=*/64, /*version=*/1);
  for (const auto& server : servers) server->set_ring(ring);

  net::ShardedClientConfig client_config;
  client_config.base.port = 1;  // per-shard endpoints come from the ring
  net::ShardedPredictionClient client(ring, client_config);

  const int completed = serve_jobs(client, traces, jobs, [&](int j) {
    if (j % 3 == 0 && ring.size() > 1) {
      // Stale the client's view: a two-member ring misroutes every key the
      // dropped member owns, and the wrong owner's kWrongShard answer must
      // heal the view mid-batch.
      std::vector<RingMember> stale(members.begin(), members.end());
      stale.erase(stale.begin() + j / 3 % kNodes);
      client.adopt_ring(HashRing(stale, /*vnodes=*/64, /*version=*/0));
    }
  });

  for (const auto& server : servers) server->stop();
  for (int i = 0; i < kNodes; ++i) {
    const net::ServerStats stats = servers[static_cast<std::size_t>(i)]->stats();
    std::printf("server %s: requests=%llu responses=%llu wrong_shard=%llu "
                "errors=%llu\n",
                node_id(i).c_str(),
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.responses),
                static_cast<unsigned long long>(stats.wrong_shard),
                static_cast<unsigned long long>(stats.errors));
  }
  const net::ShardedClientStats& client_stats = client.stats();
  std::printf("client: batches=%llu sub_batches=%llu hops=%llu "
              "refreshes=%llu\n",
              static_cast<unsigned long long>(client_stats.batches),
              static_cast<unsigned long long>(client_stats.sub_batches),
              static_cast<unsigned long long>(client_stats.wrong_shard_hops),
              static_cast<unsigned long long>(client_stats.ring_refreshes));
  std::printf("completed %d/%d\n", completed, jobs);
  return completed == jobs ? 0 : 1;
}

int main_checked(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string scenario = args.get("scenario");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  const int machines =
      static_cast<int>(args.get_int_or("machines", 4, 1, kIntMax));
  const int days = static_cast<int>(args.get_int_or("days", 10, 2, kIntMax));
  const int jobs = static_cast<int>(args.get_int_or("jobs", 8, 1, kIntMax));
  // Round-robin placement gives a reactor past max_connections nothing to
  // own, so that is the ceiling.
  const auto reactors = static_cast<unsigned>(args.get_int_or(
      "reactors", 1, 1,
      static_cast<std::int64_t>(net::ServerConfig{}.max_connections)));
  std::string spec = args.get_or("failpoints", "");
  args.check_all_consumed();

  // Scenario defaults; fold the run seed into the probability streams so
  // --seed changes the injected fault pattern too.
  const std::string s = std::to_string(seed);
  if (spec.empty()) {
    if (scenario == "revocation")
      spec = "gateway.execute.revoke=prob:0.003:" + s;
    else if (scenario == "churn")
      spec = "gateway.execute.revoke=prob:0.002:" + s;
    else if (scenario == "planner")
      // Replica-churn storm on the transient-VM fleet: ~30% of planned
      // replicas lost at launch, every 7th fleet probe failing to estimate.
      spec = "replication.replica.lost=prob:0.3:" + s +
             ";service.estimate.fail=every:7";
    else if (scenario == "registry")
      spec = "registry.enumerate.drop=prob:0.4:" + s +
             ";registry.lookup.stale=every:7";
    else if (scenario == "service")
      spec = "service.cache.invalidate=every:5;service.estimate.slow=every:9," +
             std::string("latency=0.0005");
    else if (scenario == "net")
      // frame.corrupt is the storm's driver (it forces reconnects, which
      // feed the per-accept points); the reconnect stream then hits capped
      // reads/writes every other connection and a dropped accept every 3rd.
      spec = "net.frame.corrupt=prob:0.4:" + s +
             ";net.read.short=every:2;net.write.stall=every:2;"
             "net.accept.drop=every:3";
    else if (scenario == "ingest")
      // Mid-stream storm: append frames rejected before decoding, every 9th
      // day rollup injected to fail, and a thinner transport storm on top —
      // all absorbed by idempotent client retries.
      spec = "ingest.append.drop=prob:0.25:" + s +
             ";ingest.rollup.fail=every:9"
             ";net.frame.corrupt=prob:0.1:" + s +
             ";net.read.short=every:3;net.write.stall=every:4;"
             "net.accept.drop=every:5";
    else if (scenario == "gossip")
      // Anti-entropy storm: a quarter of all syncs/acks lost outright and
      // every 5th delivered a round late. No net.* points — the phase-2
      // serving pass must stay transport-clean so the only wrong answers a
      // shard can give are kWrongShard refusals.
      spec = "gossip.drop=prob:0.25:" + s + ";gossip.delay=every:5";
  }

  Failpoints::instance().reset();
  Failpoints::instance().arm_from_spec(spec);
  std::printf("scenario=%s seed=%llu machines=%d days=%d jobs=%d\n",
              scenario.c_str(), static_cast<unsigned long long>(seed),
              machines, days, jobs);
  std::printf("failpoints=%s\n", spec.c_str());

  int status = 1;
  if (scenario == "revocation" || scenario == "registry") {
    status = run_revocation(seed, machines, days, jobs);
  } else if (scenario == "service") {
    status = run_service(seed, machines, days, jobs);
  } else if (scenario == "churn") {
    status = run_churn(seed, machines, days, jobs);
  } else if (scenario == "planner") {
    status = run_planner(seed, machines, days, jobs);
  } else if (scenario == "net") {
    status = run_net(seed, machines, days, jobs, reactors);
  } else if (scenario == "ingest") {
    status = run_ingest(seed, machines, days, jobs, reactors);
  } else if (scenario == "gossip") {
    status = run_gossip(seed, machines, days, jobs, reactors);
  } else {
    std::fprintf(stderr,
                 "unknown scenario '%s' "
                 "(use revocation|churn|planner|registry|service|net|ingest"
                 "|gossip)\n",
                 scenario.c_str());
    return 1;
  }
  print_stats();
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_checked(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_chaos: %s\n", error.what());
    return 1;
  }
}
