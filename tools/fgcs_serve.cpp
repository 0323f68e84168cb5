// fgcs_serve — serve TR predictions over the binary wire protocol.
//
//   fgcs_serve [--host H] [--port P] [--training-days N]
//              [--threads N] [--load-root DIR] [--max-requests N]
//              [--ingest] [--retention N] [--metrics]
//              [--node-id ID [--peers ID=H:P,...] [--gossip-interval MS]
//               [--vnodes N]] TRACE...
//
// Loads each positional trace file into the trace store of a
// PredictionServer backed by one memoized PredictionService and serves
// request frames (see DESIGN.md §9) until interrupted or until
// --max-requests request frames have been answered. Clients name machines
// by the loaded machine id; with --load-root DIR they may also name trace
// file paths, which the server loads into the same store on first use, but
// only from under DIR (off by default — serving arbitrary server-side files
// to any connected client is opt-in). With --ingest the server also accepts
// kAppendSamples frames: monitors stream packed samples, extending a loaded
// machine's history or auto-registering a new machine on first contact,
// every closed day refreshes the prediction cache, and --retention N bounds
// each appended machine's history to a sliding N-day window (0 =
// unlimited).
//
// Decentralized registry (DESIGN.md §11, bring-up walkthrough in
// docs/OPERATIONS.md): --node-id joins this server to a registry ring under
// that identity. --peers seeds the membership (comma-separated ID=HOST:PORT
// contacts); every --gossip-interval milliseconds the server runs one
// anti-entropy round — tick the agent, push kGossipSync to the selected
// peers, merge their acks — and republishes the resulting ring to its
// reactor, so request batches for keys the ring assigns elsewhere are
// answered with kWrongShard (the client re-routes). --vnodes tunes ring
// smoothness (HashRing contract).
//
//   fgcs_serve --selfcheck [--port P]
//
// Self-check mode: binds an ephemeral (or given) port, serves a synthetic
// fleet to an in-process PredictionClient, and verifies the served
// Predictions are bit-identical to the same service called in-process —
// cold and warm. Exits 0 on success; this is the tool's smoke test.
#include <csignal>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fgcs.hpp"
#include "util/cli.hpp"

namespace {

using namespace fgcs;

volatile std::sig_atomic_t g_interrupted = 0;

void handle_signal(int) { g_interrupted = 1; }

/// Parses the --peers grammar "id=host:port,id=host:port" into bootstrap
/// member records. Throws DataError on an entry without "ID=", and
/// PreconditionError (from parse_endpoint) on a malformed HOST:PORT.
std::vector<MemberState> parse_peers(const std::string& spec) {
  std::vector<MemberState> peers;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      throw DataError("fgcs_serve: malformed --peers entry '" + entry +
                      "' (want ID=HOST:PORT)");
    Endpoint endpoint = parse_endpoint(entry.substr(eq + 1));
    MemberState peer;
    peer.node_id = entry.substr(0, eq);
    peer.host = std::move(endpoint.host);
    peer.port = endpoint.port;
    peers.push_back(std::move(peer));
  }
  return peers;
}

/// One anti-entropy round over the wire: tick, push the sync to each
/// selected peer (endpoints from the agent's own member table), merge acks,
/// republish the ring to the reactor. Unreachable peers just miss the
/// round — phi accrual marks them suspect/dead if it keeps happening.
void gossip_round(net::PredictionServer& server,
                  std::map<std::string, std::unique_ptr<net::PredictionClient>>&
                      peer_clients) {
  const auto [peers, sync] = server.gossip_tick();
  for (const std::string& peer_id : peers) {
    const MemberState* peer = nullptr;
    for (const MemberState& member : sync.members)
      if (member.node_id == peer_id) peer = &member;
    if (peer == nullptr || peer->port == 0) continue;
    try {
      auto it = peer_clients.find(peer_id);
      if (it == peer_clients.end()) {
        net::ClientConfig config;
        config.host = peer->host;
        config.port = peer->port;
        config.connect_timeout = 2.0;
        config.request_timeout = 5.0;
        config.max_attempts = 1;  // phi handles persistent failure, not retries
        it = peer_clients
                 .emplace(peer_id,
                          std::make_unique<net::PredictionClient>(config))
                 .first;
      }
      server.gossip_merge_ack(it->second->gossip_sync(sync));
    } catch (const std::exception&) {
      // Unreachable this round; drop the cached client so the next attempt
      // reconnects cleanly.
      peer_clients.erase(peer_id);
    }
  }
  server.set_ring(server.gossip_ring());
}

int selfcheck(std::uint16_t port) {
  WorkloadParams params;
  params.sampling_period = 60;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, /*seed=*/20060619, /*count=*/2, /*days=*/12,
                     "selfcheck");

  const auto service = std::make_shared<PredictionService>();
  net::ServerConfig server_config;
  server_config.port = port;
  net::PredictionServer server(server_config, service);
  for (const MachineTrace& trace : fleet) server.add_trace(trace);
  server.start();
  std::printf("fgcs_serve: selfcheck listening on %s:%u\n",
              server.host().c_str(), server.port());

  net::ClientConfig client_config;
  client_config.port = server.port();
  net::PredictionClient client(client_config);

  std::vector<net::WireRequestItem> items;
  for (const MachineTrace& trace : fleet)
    for (const SimTime start_hour : {9, 14})
      items.push_back(net::WireRequestItem{
          .machine_key = trace.machine_id(),
          .request = {.target_day = trace.day_count(),
                      .window = {.start_of_day = start_hour * kSecondsPerHour,
                                 .length = 2 * kSecondsPerHour}}});

  // In-process reference through a *separate* service instance, so the
  // comparison crosses the wire plus an independent cache.
  PredictionService reference;
  std::vector<Prediction> expected;
  for (const net::WireRequestItem& item : items) {
    const MachineTrace* trace = nullptr;
    for (const MachineTrace& t : fleet)
      if (t.machine_id() == item.machine_key) trace = &t;
    expected.push_back(reference.predict(*trace, item.request));
  }

  for (const char* pass : {"cold", "warm"}) {
    const std::vector<Prediction> served = client.predict_batch(items);
    for (std::size_t i = 0; i < served.size(); ++i) {
      if (served[i].temporal_reliability != expected[i].temporal_reliability ||
          served[i].initial_state != expected[i].initial_state ||
          served[i].p_absorb != expected[i].p_absorb ||
          served[i].steps != expected[i].steps) {
        std::fprintf(stderr,
                     "fgcs_serve: selfcheck FAILED (%s pass, request %zu): "
                     "served TR %.17g != in-process %.17g\n",
                     pass, i, served[i].temporal_reliability,
                     expected[i].temporal_reliability);
        return 1;
      }
    }
    std::printf("fgcs_serve: selfcheck %s pass OK (%zu predictions, "
                "bit-identical)\n",
                pass, served.size());
  }
  server.stop();  // join first: quiesces the counters the report reads
  const net::ServerStats stats = server.stats();
  std::printf("fgcs_serve: selfcheck served %llu frames, %llu predictions, "
              "rx %llu tx %llu bytes\n",
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.predictions),
              static_cast<unsigned long long>(stats.rx_bytes),
              static_cast<unsigned long long>(stats.tx_bytes));
  return 0;
}

int main_checked(int argc, char** argv) {
  const ArgParser args(argc, argv, {"selfcheck", "metrics", "ingest"});
  if (args.has("selfcheck")) {
    const auto port =
        static_cast<std::uint16_t>(args.get_int_or("port", 0, 0, 65535));
    args.check_all_consumed();
    return selfcheck(port);
  }

  ServiceConfig service_config;
  service_config.estimator.training_days =
      static_cast<std::size_t>(args.get_int_or("training-days", 15, 0));
  service_config.max_threads = static_cast<unsigned>(
      args.get_int_or("threads", 0, 0, std::numeric_limits<unsigned>::max()));

  net::ServerConfig server_config;
  server_config.host = args.get_or("host", "127.0.0.1");
  server_config.port =
      static_cast<std::uint16_t>(args.get_int_or("port", 7070, 0, 65535));
  server_config.trace_root = args.get_or("load-root", "");
  server_config.ingest = args.has("ingest");
  server_config.ingest_retention_days = args.get_int_or("retention", 0);
  server_config.node_id = args.get_or("node-id", "");
  const std::vector<MemberState> peers = parse_peers(args.get_or("peers", ""));
  const std::int64_t gossip_interval_ms =
      args.get_int_or("gossip-interval", 1000);
  const auto vnodes = static_cast<std::uint32_t>(args.get_int_or(
      "vnodes", 128, 0, std::numeric_limits<std::uint32_t>::max()));
  const std::int64_t max_requests = args.get_int_or("max-requests", 0);
  const bool want_metrics = args.has("metrics");
  args.check_all_consumed();
  if (server_config.node_id.empty() && !peers.empty())
    throw DataError("fgcs_serve: --peers requires --node-id");

  const auto service = std::make_shared<PredictionService>(service_config);
  net::PredictionServer server(server_config, service);
  for (const std::string& path : args.positional()) {
    server.add_trace(MachineTrace::load_file(path));
    std::printf("fgcs_serve: loaded %s\n", path.c_str());
  }
  if (args.positional().empty() && server_config.trace_root.empty() &&
      !server_config.ingest) {
    std::fprintf(stderr,
                 "fgcs_serve: no traces, no --load-root, and no --ingest "
                 "would serve nothing\n");
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  server.start();

  // Registry membership: the agent is created after start() so its member
  // record carries the real bound port, seeded with the bootstrap peers.
  std::optional<GossipAgent> gossip;
  std::map<std::string, std::unique_ptr<net::PredictionClient>> peer_clients;
  if (!server_config.node_id.empty()) {
    MemberState self;
    self.node_id = server_config.node_id;
    self.host = server_config.host;
    self.port = server.port();
    GossipConfig gossip_config;
    gossip_config.vnodes = vnodes;
    gossip.emplace(std::move(self), gossip_config);
    for (const MemberState& peer : peers) gossip->seed_peer(peer);
    server.attach_gossip(&*gossip);
    server.set_ring(gossip->ring());
    std::printf("fgcs_serve: registry node '%s' (%zu bootstrap peer%s, "
                "%u vnodes)\n",
                server_config.node_id.c_str(), peers.size(),
                peers.size() == 1 ? "" : "s", vnodes);
  }
  // Unbuffered so a parent process piping our stdout sees the port line
  // immediately (tests/net/net_tools_test.cpp parses it).
  std::printf("fgcs_serve: listening on %s:%u (%zu traces%s)\n",
              server.host().c_str(), server.port(), args.positional().size(),
              server_config.ingest ? ", ingest on" : "");
  std::fflush(stdout);

  auto next_gossip = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(gossip_interval_ms);
  while (!g_interrupted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (gossip.has_value() && std::chrono::steady_clock::now() >= next_gossip) {
      gossip_round(server, peer_clients);
      next_gossip += std::chrono::milliseconds(gossip_interval_ms);
    }
    if (max_requests > 0 &&
        server.stats().requests >= static_cast<std::uint64_t>(max_requests))
      break;
  }

  server.stop();
  if (gossip.has_value()) {
    server.attach_gossip(nullptr);
    const HashRing ring = gossip->ring();
    std::printf("fgcs_serve: gossip ran %llu rounds, ring has %zu member%s "
                "(digest %016llx)\n",
                static_cast<unsigned long long>(gossip->round()), ring.size(),
                ring.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(gossip->digest()));
  }
  const net::ServerStats stats = server.stats();
  std::printf("fgcs_serve: served %llu requests (%llu predictions, "
              "%llu errors), rx %llu tx %llu bytes\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.predictions),
              static_cast<unsigned long long>(stats.errors),
              static_cast<unsigned long long>(stats.rx_bytes),
              static_cast<unsigned long long>(stats.tx_bytes));
  if (server_config.ingest)
    std::printf("fgcs_serve: ingested %llu appends (%llu samples, "
                "%llu duplicates), closed %llu days, retired %llu\n",
                static_cast<unsigned long long>(stats.appends),
                static_cast<unsigned long long>(stats.append_samples),
                static_cast<unsigned long long>(stats.append_duplicates),
                static_cast<unsigned long long>(stats.days_closed),
                static_cast<unsigned long long>(stats.days_retired));
  if (want_metrics)
    std::printf("\n%s", MetricsRegistry::global().render_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_checked(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_serve: %s\n", error.what());
    return 1;
  }
}
