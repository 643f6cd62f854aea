#include "sim/runner.h"

#include "obs/json_writer.h"
#include "trace/stats.h"

namespace dcv {
namespace {

/// Runner-level registry counters, cached once per run so the per-epoch
/// cost with metrics attached is a handful of relaxed atomic adds.
struct RunnerCounters {
  obs::Counter* epochs = nullptr;
  obs::Counter* alarms = nullptr;
  obs::Counter* alarm_epochs = nullptr;
  obs::Counter* polled_epochs = nullptr;
  obs::Counter* true_violations = nullptr;
  obs::Counter* detected_violations = nullptr;
  obs::Counter* missed_violations = nullptr;
  obs::Counter* false_alarm_epochs = nullptr;

  void Bind(obs::MetricsRegistry* metrics) {
    if (metrics == nullptr) {
      return;
    }
    epochs = metrics->counter("sim/epochs");
    alarms = metrics->counter("sim/alarms");
    alarm_epochs = metrics->counter("sim/alarm_epochs");
    polled_epochs = metrics->counter("sim/polled_epochs");
    true_violations = metrics->counter("sim/true_violations");
    detected_violations = metrics->counter("sim/detected_violations");
    missed_violations = metrics->counter("sim/missed_violations");
    false_alarm_epochs = metrics->counter("sim/false_alarm_epochs");
  }
};

Status ValidateAndFillWeights(const Trace& training, const Trace& eval,
                              const SimOptions& options,
                              std::vector<int64_t>* weights) {
  const int n = eval.num_sites();
  if (training.num_epochs() > 0 && training.num_sites() != n) {
    return InvalidArgumentError(
        "training and eval traces have different site counts");
  }
  *weights = options.weights;
  if (weights->empty()) {
    weights->assign(static_cast<size_t>(n), 1);
  }
  if (static_cast<int>(weights->size()) != n) {
    return InvalidArgumentError("weights size mismatch");
  }
  // The schemes sum eval values: a weighted sum must not wrap.
  return CheckWeightedSumFits(*weights, SiteMaxima(eval));
}

}  // namespace

Result<std::vector<SimResult>> RunSimulationSegments(
    DetectionScheme* scheme, const SimOptions& options, const Trace& training,
    const Trace& eval, int64_t segment_epochs) {
  if (scheme == nullptr) {
    return InvalidArgumentError("scheme must not be null");
  }
  if (segment_epochs < 1) {
    return InvalidArgumentError("segment_epochs must be >= 1");
  }
  std::vector<int64_t> weights;
  DCV_RETURN_IF_ERROR(ValidateAndFillWeights(training, eval, options, &weights));
  const int n = eval.num_sites();

  // One shared counter and channel; per-segment deltas are computed at
  // segment boundaries.
  MessageCounter counter;
  Channel channel(options.faults);
  DCV_RETURN_IF_ERROR(channel.Init(n, &counter));
  channel.SetObserver(options.metrics, options.recorder);
  if (options.recorder != nullptr) {
    options.recorder->DeclareSites(n);
  }
  RunnerCounters oc;
  oc.Bind(options.metrics);
  SimContext ctx;
  ctx.num_sites = n;
  ctx.weights = weights;
  ctx.global_threshold = options.global_threshold;
  ctx.training = &training;
  ctx.counter = &counter;
  ctx.channel = &channel;
  ctx.metrics = options.metrics;
  ctx.recorder = options.recorder;
  DCV_RETURN_IF_ERROR(scheme->Initialize(ctx));

  std::vector<SimResult> segments;
  MessageCounter counted_so_far;
  ChannelStats stats_so_far;
  obs::MetricsSnapshot metrics_so_far;
  SimResult current;
  current.scheme_name = std::string(scheme->name());

  auto flush_segment = [&]() {
    // Attribute the counter growth since the last flush to this segment.
    for (int m = 0; m < kNumMessageTypes; ++m) {
      MessageType type = static_cast<MessageType>(m);
      current.messages.Count(type, counter.of(type) - counted_so_far.of(type));
      counted_so_far.Count(type,
                           counter.of(type) - counted_so_far.of(type));
    }
    current.reliability = channel.stats() - stats_so_far;
    stats_so_far = channel.stats();
    if (options.metrics != nullptr) {
      obs::MetricsSnapshot now = options.metrics->Snapshot();
      current.metrics = now.DiffSince(metrics_so_far);
      metrics_so_far = std::move(now);
    }
    segments.push_back(current);
    current = SimResult{};
    current.scheme_name = std::string(scheme->name());
  };

  for (int64_t t = 0; t < eval.num_epochs(); ++t) {
    const std::vector<int64_t>& values = eval.epoch(t);
    if (static_cast<int>(values.size()) != n) {
      return InvalidArgumentError(
          "eval epoch " + std::to_string(t) + " has " +
          std::to_string(values.size()) + " values; expected " +
          std::to_string(n));
    }
    channel.BeginEpoch(t);
    DCV_ASSIGN_OR_RETURN(EpochResult epoch, scheme->OnEpoch(values));
    if (options.on_epoch) {
      options.on_epoch(t, epoch);
    }

    ++current.epochs;
    DCV_OBS_COUNT(oc.epochs, 1);
    if (epoch.num_alarms > 0) {
      ++current.alarm_epochs;
      current.total_alarms += epoch.num_alarms;
      DCV_OBS_COUNT(oc.alarm_epochs, 1);
      DCV_OBS_COUNT(oc.alarms, epoch.num_alarms);
    }
    if (epoch.polled) {
      ++current.polled_epochs;
      DCV_OBS_COUNT(oc.polled_epochs, 1);
    }
    const bool violated =
        options.is_violation
            ? options.is_violation(values)
            : eval.WeightedSum(t, weights) > options.global_threshold;
    if (violated) {
      ++current.true_violations;
      DCV_OBS_COUNT(oc.true_violations, 1);
      DCV_OBS_EVENT(options.recorder, obs::TraceEventKind::kViolation, t,
                    obs::TraceRecorder::kCoordinator,
                    epoch.violation_reported ? 1 : 0);
      if (epoch.violation_reported) {
        ++current.detected_violations;
        DCV_OBS_COUNT(oc.detected_violations, 1);
      } else {
        ++current.missed_violations;
        DCV_OBS_COUNT(oc.missed_violations, 1);
      }
    } else if (epoch.polled) {
      ++current.false_alarm_epochs;
      DCV_OBS_COUNT(oc.false_alarm_epochs, 1);
    }

    if ((t + 1) % segment_epochs == 0) {
      flush_segment();
    }
  }
  if (current.epochs > 0) {
    flush_segment();
  }
  return segments;
}

Result<SimResult> RunSimulation(DetectionScheme* scheme,
                                const SimOptions& options,
                                const Trace& training, const Trace& eval) {
  if (eval.num_epochs() == 0) {
    // Degenerate run: still initialize and return an empty result.
    if (scheme == nullptr) {
      return InvalidArgumentError("scheme must not be null");
    }
    std::vector<int64_t> weights;
    DCV_RETURN_IF_ERROR(
        ValidateAndFillWeights(training, eval, options, &weights));
    MessageCounter counter;
    Channel channel(options.faults);
    DCV_RETURN_IF_ERROR(channel.Init(eval.num_sites(), &counter));
    SimContext ctx;
    ctx.num_sites = eval.num_sites();
    ctx.weights = weights;
    ctx.global_threshold = options.global_threshold;
    ctx.training = &training;
    ctx.counter = &counter;
    ctx.channel = &channel;
    ctx.metrics = options.metrics;
    ctx.recorder = options.recorder;
    DCV_RETURN_IF_ERROR(scheme->Initialize(ctx));
    SimResult empty;
    empty.scheme_name = std::string(scheme->name());
    return empty;
  }
  DCV_ASSIGN_OR_RETURN(
      auto segments,
      RunSimulationSegments(scheme, options, training, eval,
                            eval.num_epochs()));
  if (segments.size() != 1) {
    return InternalError("expected a single simulation segment");
  }
  return segments.front();
}

std::string SimResult::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("scheme").Value(scheme_name);
  w.Key("epochs").Value(epochs);
  w.Key("messages").BeginObject();
  for (int m = 0; m < kNumMessageTypes; ++m) {
    MessageType type = static_cast<MessageType>(m);
    w.Key(MessageTypeName(type)).Value(messages.of(type));
  }
  w.Key("total").Value(messages.total());
  w.EndObject();
  w.Key("messages_per_epoch").Value(MessagesPerEpoch());
  w.Key("detection").BeginObject();
  w.Key("alarm_epochs").Value(alarm_epochs);
  w.Key("total_alarms").Value(total_alarms);
  w.Key("polled_epochs").Value(polled_epochs);
  w.Key("true_violations").Value(true_violations);
  w.Key("detected_violations").Value(detected_violations);
  w.Key("missed_violations").Value(missed_violations);
  w.Key("false_alarm_epochs").Value(false_alarm_epochs);
  w.EndObject();
  w.Key("reliability").Raw(reliability.ToJson());
  w.Key("metrics").Raw(metrics.ToJson());
  w.EndObject();
  return w.str();
}

}  // namespace dcv
