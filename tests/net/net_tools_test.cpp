// End-to-end tool tests: fgcs_serve --selfcheck as a subprocess, and a full
// serve → `fgcs_predict --batch --connect` round trip whose TR report must
// match the in-process `--batch` report line for line. Binary locations are
// injected by the build (FGCS_SERVE_BIN etc. — generator expressions in
// tests/CMakeLists.txt), so the test exercises the installed entry points,
// not relinked test doubles.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if !defined(FGCS_SERVE_BIN) || !defined(FGCS_PREDICT_BIN) || \
    !defined(FGCS_GEN_BIN) || !defined(FGCS_LOADGEN_BIN)
#error "build must define FGCS_SERVE_BIN, FGCS_PREDICT_BIN, FGCS_GEN_BIN, FGCS_LOADGEN_BIN"
#endif

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int status = -1;
  std::string output;
};

/// Runs a shell command, capturing stdout+stderr. Every command is wrapped in
/// coreutils `timeout` so a wedged tool fails the test instead of hanging it.
RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen(("timeout 120 " + command + " 2>&1").c_str(), "r");
  if (!pipe) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe)) result.output += buffer;
  const int raw = ::pclose(pipe);
  result.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return result;
}

/// The prediction report proper: lines that are not comments or tool chatter.
std::vector<std::string> tr_lines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream stream(output);
  std::string line;
  while (std::getline(stream, line))
    if (line.find(" TR ") != std::string::npos) lines.push_back(line);
  return lines;
}

TEST(NetTools, ServeSelfcheckPassesBitIdentityColdAndWarm) {
  const RunResult result = run(std::string(FGCS_SERVE_BIN) + " --selfcheck");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("cold pass OK"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("warm pass OK"), std::string::npos)
      << result.output;
}

TEST(NetTools, MalformedValuesExitNonzeroNamingTheOption) {
  // Each bad value must stop the tool before it plans, connects or reads the
  // batch file, with a message that says which value was wrong.
  const std::string loadgen = std::string(FGCS_LOADGEN_BIN) + " --plan-only";
  const std::string predict =
      std::string(FGCS_PREDICT_BIN) + " --batch no-such-batch.txt";
  const std::pair<std::string, std::string> cases[] = {
      {loadgen + " --rate abc", "--rate"},
      {loadgen + " --rate 200abc", "--rate"},
      {loadgen + " --rate nan", "--rate"},
      {loadgen + " --theta 0.9x", "--theta"},
      {loadgen + " --assert-achieved inf", "--assert-achieved"},
      {predict + " --connect 127.0.0.1:70000", "127.0.0.1:70000"},
      {predict + " --connect 127.0.0.1:abc", "127.0.0.1:abc"},
      {predict + " --connect 127.0.0.1:7070 --timeout inf", "--timeout"},
  };
  for (const auto& [command, named] : cases) {
    const RunResult result = run(command);
    EXPECT_NE(result.status, 0) << command << "\n" << result.output;
    EXPECT_NE(result.output.find(named), std::string::npos)
        << command << "\n" << result.output;
  }
}

/// Writes `lines` as a batch file over one freshly generated trace (named
/// by the TRACE placeholder) and runs `fgcs_predict --batch` on it.
RunResult predict_batch_lines(const std::string& name,
                              const std::vector<std::string>& lines) {
  const fs::path dir = fs::current_path() / "net-tools-batch";
  fs::create_directories(dir);
  const std::string trace = (dir / "batchtool00.fgcs").string();
  if (!fs::exists(trace)) {
    const RunResult gen =
        run(std::string(FGCS_GEN_BIN) + " --out " + dir.string() +
            " --machines 1 --days 3 --seed 5 --period 60 --prefix batchtool");
    if (gen.status != 0) return gen;
  }
  const fs::path batch = dir / name;
  {
    std::ofstream out(batch);
    for (std::string line : lines) {
      const std::size_t at = line.find("TRACE");
      if (at != std::string::npos) line.replace(at, 5, trace);
      out << line << "\n";
    }
  }
  return run(std::string(FGCS_PREDICT_BIN) + " --batch " + batch.string());
}

TEST(NetTools, BatchDayWithTrailingTextFailsNamingTheLine) {
  // Read by a lenient integer parse, "8x" would quietly predict day 8.
  const RunResult result = predict_batch_lines(
      "day-suffix.txt", {"# header", "TRACE 09:00 2", "TRACE 09:00 2 8x"});
  EXPECT_NE(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("day-suffix.txt:3: expected a day number or "
                               "S1/S2, got '8x'"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find(" TR "), std::string::npos) << result.output;
}

TEST(NetTools, BatchTimeOfDayErrorsKeepTheLineNumber) {
  const RunResult result = predict_batch_lines(
      "bad-time.txt", {"TRACE 09:00 2", "TRACE 9am 2"});
  EXPECT_NE(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("bad-time.txt:2: expected HH:MM or HH:MM:SS, "
                               "got '9am'"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("cli.cpp:"), std::string::npos)
      << result.output;
}

TEST(NetTools, ConnectModeReportMatchesLocalBatchMode) {
  const fs::path dir = fs::current_path() / "net-tools-test";
  fs::create_directories(dir);

  const RunResult gen =
      run(std::string(FGCS_GEN_BIN) + " --out " + dir.string() +
          " --machines 2 --days 10 --seed 11 --period 60 --prefix nettool");
  ASSERT_EQ(gen.status, 0) << gen.output;
  const std::string trace0 = (dir / "nettool00.fgcs").string();
  const std::string trace1 = (dir / "nettool01.fgcs").string();
  ASSERT_TRUE(fs::exists(trace0) && fs::exists(trace1)) << gen.output;

  const fs::path batch = dir / "batch.txt";
  {
    std::ofstream out(batch);
    out << "# trace start hours [day] [init]\n"
        << trace0 << " 09:00 2\n"
        << trace1 << " 14:00 3\n"
        << trace0 << " 22:00 1 8 S1\n";
  }

  const RunResult local =
      run(std::string(FGCS_PREDICT_BIN) + " --batch " + batch.string());
  ASSERT_EQ(local.status, 0) << local.output;
  const std::vector<std::string> expected = tr_lines(local.output);
  ASSERT_EQ(expected.size(), 3u) << local.output;

  // Serve on an ephemeral port; --max-requests 1 makes the server exit on its
  // own once the remote batch (one request frame) has been answered, so
  // pclose() below observes a clean shutdown instead of killing it. The batch
  // file names machines by trace path, so path loading must be opted in —
  // and is sandboxed to the test directory via --load-root.
  FILE* server = ::popen(("timeout 120 " + std::string(FGCS_SERVE_BIN) +
                          " --port 0 --max-requests 1 --load-root " +
                          dir.string() + " " + trace0 + " " + trace1 +
                          " 2>&1")
                             .c_str(),
                         "r");
  ASSERT_NE(server, nullptr);
  std::string server_output;
  std::uint16_t port = 0;
  char line[512];
  while (std::fgets(line, sizeof(line), server)) {
    server_output += line;
    const std::string text(line);
    const std::size_t at = text.find("listening on 127.0.0.1:");
    if (at != std::string::npos) {
      port = static_cast<std::uint16_t>(
          std::stoi(text.substr(at + std::string("listening on 127.0.0.1:").size())));
      break;
    }
  }
  ASSERT_NE(port, 0) << "no listening line from fgcs_serve:\n" << server_output;

  const RunResult remote =
      run(std::string(FGCS_PREDICT_BIN) + " --batch " + batch.string() +
          " --connect 127.0.0.1:" + std::to_string(port));

  // Drain the server's remaining output and reap it before judging anything,
  // so a failure report includes what the server saw.
  while (std::fgets(line, sizeof(line), server)) server_output += line;
  const int server_raw = ::pclose(server);

  ASSERT_EQ(remote.status, 0) << remote.output << "\nserver:\n"
                              << server_output;
  EXPECT_NE(remote.output.find("# net: 127.0.0.1:"), std::string::npos)
      << remote.output;
  const std::vector<std::string> served = tr_lines(remote.output);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(served[i], expected[i]) << "row " << i << " diverged over the wire";

  EXPECT_TRUE(WIFEXITED(server_raw) && WEXITSTATUS(server_raw) == 0)
      << server_output;
  EXPECT_NE(server_output.find("served 1 requests (3 predictions"),
            std::string::npos)
      << server_output;
}

}  // namespace
