// End-to-end repetitions of one workload through the public run API.
//
//   perfbench_workload --workload NAME --seed S --seconds T [--smoke]
//                      [--dir DIR]
//
// Makes the workload's inputs from the seed (the replay trace files go to
// DIR), runs one warm-up repetition, then timed repetitions for about T
// seconds (at least three; with --smoke no warm-up and one). Every
// repetition, the warm-up included, is checked (RepChecker). Prints one JSON
// line: each timed repetition's raw values, the coordinator round and
// detection-lag quantiles pooled over the timed repetitions, and the
// machine fingerprint. run.py turns it into the benchmark's metrics.

#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

void WriteRep(dcv::obs::JsonWriter* w, const Rep& rep) {
  w->BeginObject();
  w->Key("updates").Value(rep.updates);
  w->Key("alarms").Value(rep.alarms);
  w->Key("polls").Value(rep.polls);
  w->Key("messages").Value(rep.messages);
  w->Key("true_violations").Value(rep.true_violations);
  w->Key("detected").Value(rep.detected);
  w->Key("missed").Value(rep.missed);
  w->Key("elapsed_s").Value(rep.elapsed_s);
  w->Key("call_s").Value(rep.call_s);
  w->Key("cpu_s").Value(rep.cpu_s);
  w->Key("round_us_p50").Value(rep.round_us.Quantile(0.5));
  w->Key("peak_rss_mb").Value(rep.peak_rss_mb);
  w->EndObject();
}

int Main(int argc, char** argv) {
  auto run = StartBenchRun(argc, argv);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench_workload: %s\n",
                 std::string(run.status().message()).c_str());
    return 2;
  }
  RepChecker checker(*run);
  std::vector<Rep> reps;
  bool ok = run->smoke ||
            checker.Check(RunPublicRep(run->spec, run->inputs),
                          "warm-up");
  RepLoop loop(run->smoke ? 0.0 : run->seconds, run->smoke ? 1 : 3);
  while (ok && loop.More(reps.size())) {
    auto rep = RunPublicRep(run->spec, run->inputs);
    if ((ok = checker.Check(rep, "timed"))) {
      reps.push_back(*rep);
    }
  }
  Rep pooled;
  for (const Rep& rep : reps) {
    pooled.Add(rep);
  }

  dcv::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(run->spec.name);
  w.Key("seed").Value(static_cast<int64_t>(run->seed));
  w.Key("fingerprint");
  WriteFingerprint(&w);
  checker.WriteAccount(&w);
  w.Key("reps").BeginArray();
  for (const Rep& rep : reps) {
    WriteRep(&w, rep);
  }
  w.EndArray();
  w.Key("round_us");
  WriteQuantiles(&w, pooled.round_us);
  w.Key("lag_epochs");
  WriteQuantiles(&w, pooled.lag_epochs);
  w.EndObject();
  PrintLine(w);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
