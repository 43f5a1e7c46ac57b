//===- perfbench/src/main.cpp - The repo benchmark's workload driver ------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <serve-open|fhe-ctmul> --seed <n>
///           --seconds <s> --trace <0|1> --jit-dir <empty dir>
///           [--trace-out <file>]
///
/// Untraced (--trace 0): one workload's timed phase; prints the end-to-end
/// metrics. Traced (--trace 1): the workload's loop without, with and again
/// without spans (the difference is the tracing overhead), then the
/// per-layer census at every workload's shapes; prints the per-layer
/// metrics and writes the spans as Chrome trace-event JSON. Either way the
/// last stdout line is one JSON object: meta, correct, attempted, failed,
/// metrics, detail. perfbench/run.py builds this binary and reduces that
/// line to the benchmark contract.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-open|fhe-ctmul> "
               "--seed <n> --seconds <s> --trace <0|1> --jit-dir <dir> "
               "[--trace-out <file>]\n");
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      Out += ' ';
    else
      Out += Ch;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

std::string jsonMetrics(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
           jsonNumber(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit) +
           "}";
  return Out + "}";
}

using RunFn = void (*)(const Config &, Tracer &, RunResult &);

RunFn workloadFn(const std::string &W) {
  if (W == "serve-open")
    return runServe;
  if (W == "fhe-ctmul")
    return runFhe;
  return nullptr;
}

double metricValue(const RunResult &R, const std::string &Name) {
  for (const Metric &M : R.Metrics)
    if (M.Name == Name)
      return M.Value;
  return NAN;
}

/// Folds a sub-run's correctness and counts into \p Into.
void absorb(RunResult &Into, const RunResult &From) {
  Into.Correct = Into.Correct && From.Correct;
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  for (const std::string &E : From.Errors)
    Into.Errors.push_back(E);
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  std::string TraceOut;
  if (argc % 2 == 0) {
    usage();
    return 2;
  }
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      C.Workload = V;
    else if (K == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      C.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      C.Trace = V == "1";
    else if (K == "--jit-dir")
      C.JitDir = V;
    else if (K == "--trace-out")
      TraceOut = V;
    else {
      usage();
      return 2;
    }
  }
  RunFn Run = workloadFn(C.Workload);
  // The JIT cache must be private: a shared one would turn cold set-ups
  // into disk hits.
  if (!Run || C.JitDir.empty() || !(C.Seconds > 0)) {
    usage();
    return 2;
  }

  RunResult Res;
  Tracer Spans(C.Trace);
  if (!C.Trace) {
    Tracer Off(false);
    Run(C, Off, Res);
  } else {
    // The workload's own loop without, with, and again without spans (half
    // the run length each): traced minus the mean of the untraced pair is
    // what tracing costs on this workload, with drift over the process's
    // life cancelled to first order.
    Config One = C;
    One.SetupReps = 1;
    One.Seconds = C.Seconds / 2;
    RunResult Plain1, Traced, Plain2;
    Tracer Off(false);
    Run(One, Off, Plain1);
    Run(One, Spans, Traced);
    Run(One, Off, Plain2);
    for (const RunResult *R : {&Plain1, &Traced, &Plain2})
      absorb(Res, *R);
    double A = (metricValue(Plain1, "op_ms") + metricValue(Plain2, "op_ms")) /
               2,
           B = metricValue(Traced, "op_ms");
    censusZkp(C, Spans, Res);
    censusServe(C, Spans, Res);
    censusFhe(C, Spans, Res);
    addCensusCounters(Res);
    Res.add("trace.overhead_frac", B / A - 1, "fraction");
    Res.detail("trace.spans", double(Spans.numSpans()), "count");
    Res.detail("trace.untraced_op_ms", A, "ms");
    Res.detail("trace.traced_op_ms", B, "ms");
    if (!TraceOut.empty() && !Spans.writeChromeJson(TraceOut))
      Res.mismatch("cannot write the trace to " + TraceOut);
  }

  for (const std::string &E : Res.Errors)
    std::fprintf(stderr, "perfbench: %s\n", E.c_str());
  std::string Errors = "[";
  for (size_t I = 0; I < Res.Errors.size(); ++I)
    Errors += (I ? ", " : "") + jsonString(Res.Errors[I]);
  Errors += "]";
#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  std::printf("{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": "
              "%s, \"trace\": %d, \"build_type\": %s, \"asserts\": \"%s\", "
              "\"compiler\": %s}, \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": %s, \"detail\": %s, "
              "\"errors\": %s}\n",
              jsonString(C.Workload).c_str(),
              static_cast<unsigned long long>(C.Seed),
              jsonNumber(C.Seconds).c_str(), C.Trace ? 1 : 0,
              jsonString(PERFBENCH_BUILD_TYPE).c_str(), Asserts,
              jsonString(PERFBENCH_COMPILER).c_str(),
              Res.Correct ? "true" : "false",
              static_cast<unsigned long long>(Res.Attempted),
              static_cast<unsigned long long>(Res.Failed),
              jsonMetrics(Res.Metrics).c_str(),
              jsonMetrics(Res.Detail).c_str(), Errors.c_str());
  return Res.Correct ? 0 : 1;
}
