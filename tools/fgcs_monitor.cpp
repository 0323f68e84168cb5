// fgcs_monitor — stream monitor samples into an ingest server.
//
//   fgcs_monitor --trace FILE --connect HOST --port P [--batch N]
//
// Replays FILE's packed samples as kAppendSamples frames against a running
// `fgcs_serve --ingest`, resuming wherever the server's history for this
// machine already ends (the first ack's duplicate count says how much of the
// replay the server had). The machine spec (epoch day-of-week, sampling
// period, total memory) rides in every frame, so the server needs no prior
// registration. --batch caps samples per frame (default one day).
//
//   fgcs_monitor --selfcheck [--port P] [--seed S]
//
// Self-check mode, the tool's smoke test: starts an in-process ingest
// server, streams a synthetic fleet through the real wire path in
// seed-varied batch sizes (plus a deliberate retransmission), and verifies
// the full contract: every ack's bookkeeping, one cache-generation bump per
// closed day, the server's final trace byte-equal to the source, and served
// TRs bit-identical to a local AvailabilityPredictor. Exits 0 on success.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fgcs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace fgcs;

/// Streams trace samples [start_index, end) to the server in frames of at
/// most `batch` samples. Returns the acks' totals (accepted, duplicates,
/// days closed/retired summed; next_index and generation from the last).
net::WireAppendAck stream_trace(net::PredictionClient& client,
                                const MachineTrace& trace, std::size_t batch,
                                std::uint64_t start_index) {
  net::WireAppendRequest request;
  request.machine_id = trace.machine_id();
  request.epoch_day_of_week =
      static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
  request.sampling_period = trace.sampling_period();
  request.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());

  const std::size_t per_day = trace.samples_per_day();
  const std::uint64_t total =
      static_cast<std::uint64_t>(trace.day_count()) * per_day;
  net::WireAppendAck ack;
  std::uint64_t index = start_index;
  while (index < total) {
    const std::uint64_t count =
        std::min<std::uint64_t>(batch, total - index);
    request.first_sample_index = index;
    request.samples.clear();
    for (std::uint64_t i = index; i < index + count; ++i)
      request.samples.push_back(trace.at(
          static_cast<std::int64_t>(i / per_day), i % per_day));
    const net::WireAppendAck frame_ack = client.append_samples(request);
    ack.accepted += frame_ack.accepted;
    ack.duplicates += frame_ack.duplicates;
    ack.days_closed += frame_ack.days_closed;
    ack.days_retired += frame_ack.days_retired;
    ack.next_index = frame_ack.next_index;
    ack.generation = frame_ack.generation;
    index = frame_ack.next_index;
  }
  return ack;
}

int selfcheck(std::uint16_t port, std::uint64_t seed) {
  WorkloadParams params;
  params.sampling_period = 60;
  const int days = 8;
  const std::vector<MachineTrace> fleet =
      generate_fleet(params, seed, /*count=*/2, days, "monitored");

  const auto service = std::make_shared<PredictionService>();
  net::ServerConfig server_config;
  server_config.port = port;
  server_config.ingest = true;
  net::PredictionServer server(server_config, service);
  server.start();
  std::printf("fgcs_monitor: selfcheck streaming to %s:%u\n",
              server.host().c_str(), server.port());

  net::ClientConfig client_config;
  client_config.port = server.port();
  net::PredictionClient client(client_config);

  Rng rng(seed ^ 0xf9c5'0001);
  for (const MachineTrace& trace : fleet) {
    const std::size_t per_day = trace.samples_per_day();
    const std::uint64_t total =
        static_cast<std::uint64_t>(trace.day_count()) * per_day;
    // Seed-varied batch sizes: some frames smaller than a day, some
    // spanning several day boundaries in one append.
    const std::size_t batch = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(per_day) / 4,
        static_cast<std::int64_t>(per_day) * 3));
    const net::WireAppendAck ack = stream_trace(client, trace, batch, 0);
    if (ack.next_index != total ||
        ack.generation !=
            static_cast<std::uint64_t>(trace.day_count())) {
      std::fprintf(stderr,
                   "fgcs_monitor: selfcheck FAILED: %s acked next=%llu "
                   "gen=%llu, want next=%llu gen=%lld\n",
                   trace.machine_id().c_str(),
                   static_cast<unsigned long long>(ack.next_index),
                   static_cast<unsigned long long>(ack.generation),
                   static_cast<unsigned long long>(total),
                   static_cast<long long>(trace.day_count()));
      return 1;
    }
    // Retransmit the final day verbatim: the store must skip every sample
    // as a duplicate and close nothing.
    net::WireAppendRequest retry;
    retry.machine_id = trace.machine_id();
    retry.epoch_day_of_week =
        static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
    retry.sampling_period = trace.sampling_period();
    retry.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());
    retry.first_sample_index = total - per_day;
    for (std::size_t i = 0; i < per_day; ++i)
      retry.samples.push_back(trace.at(trace.day_count() - 1, i));
    const net::WireAppendAck dup = client.append_samples(retry);
    if (dup.accepted != 0 || dup.duplicates != per_day ||
        dup.days_closed != 0 || dup.next_index != total) {
      std::fprintf(stderr,
                   "fgcs_monitor: selfcheck FAILED: retransmission acked "
                   "%llu accepted / %llu duplicates\n",
                   static_cast<unsigned long long>(dup.accepted),
                   static_cast<unsigned long long>(dup.duplicates));
      return 1;
    }
    // The server's rolled-up history must equal the source byte for byte.
    const std::shared_ptr<const MachineTrace> snap =
        server.store()->snapshot(trace.machine_id());
    if (snap == nullptr || snap->day_count() != trace.day_count()) {
      std::fprintf(stderr, "fgcs_monitor: selfcheck FAILED: bad snapshot\n");
      return 1;
    }
    for (std::int64_t d = 0; d < trace.day_count(); ++d)
      for (std::size_t i = 0; i < per_day; ++i)
        if (!(snap->at(d, i) == trace.at(d, i))) {
          std::fprintf(stderr,
                       "fgcs_monitor: selfcheck FAILED: snapshot sample "
                       "(%lld, %zu) differs from source\n",
                       static_cast<long long>(d), i);
          return 1;
        }
  }

  // Served predictions over the streamed history must be bit-identical to a
  // local AvailabilityPredictor on the source traces.
  const AvailabilityPredictor predictor;
  std::size_t checked = 0;
  for (const MachineTrace& trace : fleet)
    for (const SimTime start_hour : {8, 20}) {
      const PredictionRequest request{
          .target_day = trace.day_count(),
          .window = {.start_of_day = start_hour * kSecondsPerHour,
                     .length = 2 * kSecondsPerHour}};
      const Prediction expected = predictor.predict(trace, request);
      const Prediction served = client.predict(net::WireRequestItem{
          .machine_key = trace.machine_id(), .request = request});
      if (served.temporal_reliability != expected.temporal_reliability ||
          served.initial_state != expected.initial_state) {
        std::fprintf(stderr,
                     "fgcs_monitor: selfcheck FAILED: served TR %.17g != "
                     "local %.17g (%s)\n",
                     served.temporal_reliability,
                     expected.temporal_reliability,
                     trace.machine_id().c_str());
        return 1;
      }
      ++checked;
    }

  server.stop();
  const net::ServerStats stats = server.stats();
  std::printf(
      "fgcs_monitor: selfcheck OK — %llu appends (%llu samples, %llu "
      "duplicates), %llu days closed, %zu served predictions bit-identical\n",
      static_cast<unsigned long long>(stats.appends),
      static_cast<unsigned long long>(stats.append_samples),
      static_cast<unsigned long long>(stats.append_duplicates),
      static_cast<unsigned long long>(stats.days_closed), checked);
  return 0;
}

int main_checked(int argc, char** argv) {
  const ArgParser args(argc, argv, {"selfcheck"});
  if (args.has("selfcheck")) {
    const auto port =
        static_cast<std::uint16_t>(args.get_int_or("port", 0, 0, 65535));
    const auto seed =
        static_cast<std::uint64_t>(args.get_int_or("seed", 20060619));
    args.check_all_consumed();
    return selfcheck(port, seed);
  }

  const std::string path = args.get("trace");
  net::ClientConfig client_config;
  client_config.host = args.get_or("connect", "127.0.0.1");
  client_config.port =
      static_cast<std::uint16_t>(args.get_int("port", 1, 65535));
  const std::int64_t batch_arg = args.get_int_or("batch", 0);
  args.check_all_consumed();

  const MachineTrace trace = MachineTrace::load_file(path);
  const std::size_t batch = batch_arg > 0
                                ? static_cast<std::size_t>(batch_arg)
                                : trace.samples_per_day();
  net::PredictionClient client(client_config);
  const net::WireAppendAck ack = stream_trace(client, trace, batch, 0);
  std::printf(
      "fgcs_monitor: streamed %s (%lld days) to %s:%u — server next=%llu "
      "gen=%llu, %llu days closed this run, %llu retired\n",
      trace.machine_id().c_str(), static_cast<long long>(trace.day_count()),
      client_config.host.c_str(), client_config.port,
      static_cast<unsigned long long>(ack.next_index),
      static_cast<unsigned long long>(ack.generation),
      static_cast<unsigned long long>(ack.days_closed),
      static_cast<unsigned long long>(ack.days_retired));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_checked(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_monitor: %s\n", error.what());
    return 1;
  }
}
