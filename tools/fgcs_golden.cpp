// fgcs_golden — golden-trace regression fixture for the paper's TR numbers.
//
// The prediction stack has been refactored three PRs in a row (service
// memoization, failpoints, thread pool); nothing so far pinned the *values*
// the pipeline produces. This tool computes temporal reliability over a
// fixed, fully seed-pinned workload — 4 synthetic machines × a grid of
// (target day, window start W_init, window length T) straight out of the
// paper's evaluation axes — and compares against a committed CSV fixture.
//
//   fgcs_golden --check  [--file CSV]   recompute, fail on drift (default)
//                                       or on a served/predicted mismatch
//   fgcs_golden --regen  [--file CSV]   rewrite the fixture
//   fgcs_golden --selftest              prove the check catches a 1e-9 nudge
//
// --workload lab (default) pins the original 128-row lab-fleet grid;
// --workload preemption pins a 64-row grid over the transient-VM preemption
// fleet (uptime-increasing hazard + correlated revocation bursts), each
// against its own fixture file.
//
// Values are written with %.17g, which round-trips IEEE doubles exactly, and
// compared with tolerance 1e-12: a fresh fixture re-checks to drift zero,
// while a 1e-9 perturbation — far below anything visible in the paper's
// 4-decimal tables — fails loudly. Determinism rests on the project Rng
// (xoshiro256**, fully seeded) plus libm transcendentals, so fixtures are
// stable per platform/toolchain; CI checks them on its pinned image, and a
// legitimate numeric change (or platform move) is one --regen away.
//
// --check also serves every row through one fresh PredictionService, cold
// then warm, for the requested initial state and for the other transient
// one. The served Prediction must equal AvailabilityPredictor's bit for bit
// (TR, absorption probabilities, initial state, steps, training days), which
// pins the cache. Both run the one served Eq. 3 path (an AbsorptionCurves
// build), so --check also estimates each row's model with the predictor's
// estimator and requires the paper's plain recursion, SparseTrSolver::solve,
// to give both initial states' served TR and absorption probabilities bit
// for bit.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "core/sparse_solver.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "workload/preemption.hpp"
#include "workload/trace_generator.hpp"

namespace {

using namespace fgcs;

constexpr const char* kDefaultFixture = "tests/golden/golden_tr.csv";
constexpr double kTolerance = 1e-12;

struct GoldenRow {
  std::string machine;
  std::int64_t target_day = 0;
  SimTime window_start = 0;
  SimTime window_length = 0;
  double tr = 0.0;
};

/// The pinned workloads + grids. Changing anything here invalidates the
/// matching committed fixture — bump deliberately and --regen in the same
/// commit. Both fleets share the seed and the 4×30-day shape; the preemption
/// grid drops the 3 h/12 h lengths to keep its fixture at 64 rows.
std::vector<MachineTrace> golden_fleet(const std::string& workload) {
  if (workload == "preemption")
    return generate_preemption_fleet(PreemptionParams{}, /*seed=*/20060619,
                                     /*count=*/4, /*days=*/30, "preempt");
  WorkloadParams params;
  params.sampling_period = 60;  // minute ticks keep the fixture fast
  return generate_fleet(params, /*seed=*/20060619, /*count=*/4, /*days=*/30,
                        "golden");
}

/// TR and the three absorption probabilities, bit for bit (a Prediction or
/// a TrResult on either side).
template <typename A, typename B>
bool same_tr_bits(const A& a, const B& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  bool same = bits(a.temporal_reliability) == bits(b.temporal_reliability);
  for (std::size_t j = 0; j < a.p_absorb.size(); ++j)
    same = same && bits(a.p_absorb[j]) == bits(b.p_absorb[j]);
  return same;
}

bool same_bits(const Prediction& a, const Prediction& b) {
  return same_tr_bits(a, b) && a.initial_state == b.initial_state &&
         a.steps == b.steps && a.training_days_used == b.training_days_used;
}

/// Served-versus-predicted and served-versus-reference tallies of one
/// --check run.
struct ServedCheck {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::size_t reference_compared = 0;
  std::size_t reference_mismatches = 0;
  ServiceStats stats;
};

/// The grid's TRs through AvailabilityPredictor. With `served` non-null,
/// every row is also served through one fresh PredictionService: cold, then
/// warm, then warm for the other transient initial state, each compared to
/// the predictor bit for bit; and both initial states' served answers are
/// compared to SparseTrSolver::solve on the row's estimated model.
std::vector<GoldenRow> compute_golden(const std::string& workload,
                                      ServedCheck* served = nullptr) {
  const std::vector<MachineTrace> fleet = golden_fleet(workload);
  const std::vector<SimTime> lengths =
      workload == "preemption" ? std::vector<SimTime>{1, 6}
                               : std::vector<SimTime>{1, 3, 6, 12};

  const AvailabilityPredictor predictor{EstimatorConfig{}};
  PredictionService service(ServiceConfig{.estimator = EstimatorConfig{}});
  const auto compare = [&](const MachineTrace& trace,
                           const PredictionRequest& request,
                           const Prediction& want,
                           const char* leg) -> Prediction {
    const Prediction got = service.predict(trace, request);
    ++served->compared;
    if (same_bits(want, got)) return got;
    ++served->mismatches;
    std::fprintf(stderr,
                 "fgcs_golden: SERVED MISMATCH (%s) — %s day %lld start %lld "
                 "len %lld init %s: predictor %.17g vs service %.17g\n",
                 leg, trace.machine_id().c_str(),
                 static_cast<long long>(request.target_day),
                 static_cast<long long>(request.window.start_of_day),
                 static_cast<long long>(request.window.length),
                 to_string(want.initial_state), want.temporal_reliability,
                 got.temporal_reliability);
    return got;
  };
  // The bit reference: the paper's recursion on the row's model, for each
  // served answer's initial state and horizon.
  const auto check_reference = [&](const MachineTrace& trace,
                                   const PredictionRequest& request,
                                   const Prediction& got) {
    const SmpModel model = predictor.estimator().estimate(
        trace, request.target_day, request.window);
    const TrResult want =
        SparseTrSolver(model).solve(got.initial_state, got.steps);
    ++served->reference_compared;
    if (same_tr_bits(want, got)) return;
    ++served->reference_mismatches;
    std::fprintf(stderr,
                 "fgcs_golden: REFERENCE MISMATCH — %s day %lld start %lld "
                 "len %lld init %s: SparseTrSolver TR %.17g p_absorb %.17g "
                 "%.17g %.17g vs service TR %.17g p_absorb %.17g %.17g "
                 "%.17g\n",
                 trace.machine_id().c_str(),
                 static_cast<long long>(request.target_day),
                 static_cast<long long>(request.window.start_of_day),
                 static_cast<long long>(request.window.length),
                 to_string(got.initial_state), want.temporal_reliability,
                 want.p_absorb[0], want.p_absorb[1], want.p_absorb[2],
                 got.temporal_reliability, got.p_absorb[0], got.p_absorb[1],
                 got.p_absorb[2]);
  };
  std::vector<GoldenRow> rows;
  for (const MachineTrace& trace : fleet) {
    // Day 15 pins mid-history training-day selection, day 30 the forecast
    // (day-after-history) path; starts cover night/morning/afternoon and a
    // 22:00 start whose longer windows wrap midnight.
    for (const std::int64_t day : {15, 30}) {
      for (const SimTime start_hour : {2, 9, 14, 22}) {
        for (const SimTime length_hours : lengths) {
          GoldenRow row;
          row.machine = trace.machine_id();
          row.target_day = day;
          row.window_start = start_hour * kSecondsPerHour;
          row.window_length = length_hours * kSecondsPerHour;
          const PredictionRequest request{
              .target_day = day,
              .window = TimeWindow{.start_of_day = row.window_start,
                                   .length = row.window_length},
              .initial_state = std::nullopt};
          const Prediction predicted = predictor.predict(trace, request);
          row.tr = predicted.temporal_reliability;
          rows.push_back(row);
          if (served == nullptr) continue;
          compare(trace, request, predicted, "cold");
          check_reference(trace, request,
                          compare(trace, request, predicted, "warm"));
          PredictionRequest other = request;
          other.initial_state = predicted.initial_state == State::kS1
                                    ? State::kS2
                                    : State::kS1;
          check_reference(trace, other,
                          compare(trace, other, predictor.predict(trace, other),
                                  "warm, other initial state"));
        }
      }
    }
  }
  if (served != nullptr) served->stats = service.stats();
  return rows;
}

std::string format_row(const GoldenRow& row) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s,%lld,%lld,%lld,%.17g",
                row.machine.c_str(), static_cast<long long>(row.target_day),
                static_cast<long long>(row.window_start),
                static_cast<long long>(row.window_length), row.tr);
  return buffer;
}

GoldenRow parse_row(const std::string& line, const std::string& where) {
  GoldenRow row;
  std::istringstream fields(line);
  std::string cell;
  const auto next = [&] {
    if (!std::getline(fields, cell, ','))
      throw DataError(where + ": expected machine,day,start,length,tr");
    return cell;
  };
  row.machine = next();
  row.target_day = std::stoll(next());
  row.window_start = std::stoll(next());
  row.window_length = std::stoll(next());
  row.tr = std::strtod(next().c_str(), nullptr);
  return row;
}

int regen(const std::string& path, const std::string& workload) {
  const std::vector<GoldenRow> rows = compute_golden(workload);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fgcs_golden: cannot write %s\n", path.c_str());
    return 1;
  }
  out << "# Golden TR fixture — regenerate with: fgcs_golden --regen --file "
         "<this file>\n";
  out << "# machine,target_day,window_start,window_length,tr\n";
  for (const GoldenRow& row : rows) out << format_row(row) << "\n";
  std::printf("fgcs_golden: wrote %zu rows to %s\n", rows.size(), path.c_str());
  return 0;
}

int check(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr,
                 "fgcs_golden: cannot open %s (run --regen first)\n",
                 path.c_str());
    return 1;
  }
  std::vector<GoldenRow> expected;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    expected.push_back(
        parse_row(line, path + ":" + std::to_string(line_no)));
  }

  ServedCheck served;
  const std::vector<GoldenRow> actual = compute_golden(workload, &served);
  // Every row must have missed once and hit twice: otherwise the warm legs
  // did not exercise the cached answers.
  if (served.reference_mismatches > 0) {
    std::fprintf(stderr,
                 "fgcs_golden: %zu of %zu served predictions differ from "
                 "SparseTrSolver::solve on the row's model\n",
                 served.reference_mismatches, served.reference_compared);
    return 1;
  }
  if (served.mismatches > 0 || served.stats.misses != actual.size() ||
      served.stats.hits != 2 * actual.size()) {
    std::fprintf(stderr,
                 "fgcs_golden: %zu of %zu served predictions differ from "
                 "AvailabilityPredictor (%llu misses, %llu hits over %zu "
                 "rows)\n",
                 served.mismatches, served.compared,
                 static_cast<unsigned long long>(served.stats.misses),
                 static_cast<unsigned long long>(served.stats.hits),
                 actual.size());
    return 1;
  }
  if (expected.size() != actual.size()) {
    std::fprintf(stderr,
                 "fgcs_golden: DRIFT — fixture has %zu rows, grid computes "
                 "%zu (grid changed without --regen?)\n",
                 expected.size(), actual.size());
    return 1;
  }
  std::size_t drifted = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const GoldenRow& want = expected[i];
    const GoldenRow& got = actual[i];
    if (want.machine != got.machine || want.target_day != got.target_day ||
        want.window_start != got.window_start ||
        want.window_length != got.window_length) {
      std::fprintf(stderr, "fgcs_golden: DRIFT — row %zu key mismatch: %s\n",
                   i, format_row(got).c_str());
      ++drifted;
      continue;
    }
    if (std::fabs(want.tr - got.tr) > kTolerance) {
      std::fprintf(stderr,
                   "fgcs_golden: DRIFT — %s day %lld start %lld len %lld: "
                   "fixture %.17g vs computed %.17g (|Δ| %.3g)\n",
                   got.machine.c_str(),
                   static_cast<long long>(got.target_day),
                   static_cast<long long>(got.window_start),
                   static_cast<long long>(got.window_length), want.tr, got.tr,
                   std::fabs(want.tr - got.tr));
      ++drifted;
    }
  }
  if (drifted > 0) {
    std::fprintf(stderr,
                 "fgcs_golden: %zu of %zu rows drifted — if intentional, "
                 "--regen and commit the new fixture\n",
                 drifted, actual.size());
    return 1;
  }
  std::printf("fgcs_golden: %zu rows match %s; %zu served predictions "
              "(cold, warm, other initial state) bit-identical to the "
              "predictor; %zu (both initial states) bit-identical to "
              "SparseTrSolver::solve on the row's model\n",
              actual.size(), path.c_str(), served.compared,
              served.reference_compared);
  return 0;
}

/// Proves end-to-end (format → parse → compare) that the suite would flag a
/// 1e-9 perturbation: round-trip every row exactly, then nudge each TR and
/// assert the comparison trips.
int selftest(const std::string& workload) {
  const std::vector<GoldenRow> rows = compute_golden(workload);
  if (rows.empty()) {
    std::fprintf(stderr, "fgcs_golden: selftest — empty grid\n");
    return 1;
  }
  for (const GoldenRow& row : rows) {
    const GoldenRow round = parse_row(format_row(row), "selftest");
    if (round.tr != row.tr) {
      std::fprintf(stderr,
                   "fgcs_golden: selftest FAILED — %.17g does not round-trip "
                   "(read back %.17g)\n",
                   row.tr, round.tr);
      return 1;
    }
    const double perturbed = row.tr + 1e-9;
    if (!(std::fabs(perturbed - round.tr) > kTolerance)) {
      std::fprintf(stderr,
                   "fgcs_golden: selftest FAILED — 1e-9 perturbation of "
                   "%.17g not detected\n",
                   row.tr);
      return 1;
    }
  }
  std::printf("fgcs_golden: selftest OK (%zu rows round-trip exactly; "
              "1e-9 perturbation detected on every row)\n",
              rows.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv, {"check", "regen", "selftest"});
    const bool do_regen = args.has("regen");
    const bool do_selftest = args.has("selftest");
    args.has("check");  // default mode; consume the flag if present
    const std::string path = args.get_or("file", kDefaultFixture);
    const std::string workload = args.get_or("workload", "lab");
    args.check_all_consumed();
    if (workload != "lab" && workload != "preemption") {
      std::fprintf(stderr, "fgcs_golden: unknown --workload '%s' "
                           "(use lab|preemption)\n",
                   workload.c_str());
      return 1;
    }
    if (do_selftest) return selftest(workload);
    if (do_regen) return regen(path, workload);
    return check(path, workload);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fgcs_golden: %s\n", error.what());
    return 1;
  }
}
