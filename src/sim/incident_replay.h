// incident_replay.h — record and deterministically replay incident bundles.
//
// The sim-layer counterpart of core/flight_recorder.h.  run_blackbox runs
// one closed loop with the flight recorder and SLO monitor armed and packs
// the resulting IncidentBundle; replay_bundle rebuilds the entire run from
// nothing but a bundle (suite + seeds + policy + fault schedule + SLO
// specs) and a provisioned model, re-runs it, and compares.  Because every
// layer underneath is deterministic (seeded Rng, modeled platform time,
// thread-count-invariant kernels and observability), a successful replay
// is byte-identical: the replayed bundle serializes to the same bytes as
// the recorded one, for any RRP_THREADS.
//
// This unit also owns the lossless conversion between sim::FaultEvent and
// the core-layer RecordedFault mirror (core cannot include sim headers —
// rrp_lint R3).
#pragma once

#include "core/flight_recorder.h"
#include "sim/faults.h"
#include "sim/runner.h"

namespace rrp::sim {

/// Lossless FaultEvent <-> RecordedFault conversion.
core::RecordedFault to_recorded_fault(const FaultEvent& e);
FaultEvent from_recorded_fault(const core::RecordedFault& r);
std::vector<core::RecordedFault> record_fault_plan(const FaultPlan& plan);
FaultPlan fault_plan_from_recorded(const std::vector<core::RecordedFault>& v);

/// Everything a black-box run needs beyond the provisioned model (which
/// CampaignInputs already describes).  All fields are serialized into the
/// bundle context, so a replay can reconstruct the spec verbatim.
struct BlackboxRunSpec {
  std::string model = "lenet";    ///< informational: provisioned model name
  std::string suite = "cut_in";   ///< built-in name or "dsl:<line>"
  std::string policy = "greedy";  ///< "greedy" or "fixed<K>"
  int frames = 600;
  std::uint64_t scenario_seed = 20240325;
  std::uint64_t noise_seed = 0x5DEECE66Dull;
  double deadline_ms = 12.0;
  int hysteresis = 6;
  int scrub_period_frames = 20;
  int watchdog_overrun_frames = 8;
  int sensing_delay_frames = 1;
  bool self_heal = true;
  bool trace_enabled = false;  ///< arm span tracing (span digests in records)
  std::size_t recorder_capacity = 256;
  FaultPlan faults;
  std::vector<core::SloSpec> slos;  ///< empty -> core::standard_slos()
};

/// Reconstructs the spec a bundle was recorded with.
BlackboxRunSpec spec_from_bundle(const core::IncidentBundle& bundle);

struct BlackboxRunResult {
  RunResult run;
  core::IncidentBundle bundle;
  bool incident = false;  ///< any SLO incident was raised during the run
};

/// Runs the closed loop (reversible provider + integrity scrubbing) with
/// the recorder and SLO monitor armed, and packs the incident bundle.
/// Owns the process observability state for the duration of the call:
/// metrics and trace are reset before AND after, and span tracing is
/// armed per `spec.trace_enabled` (previous state restored).  The
/// network in `inputs` is restored bit-exact on return (faults corrupt
/// it mid-run, as in the fault campaign).
BlackboxRunResult run_blackbox(const BlackboxRunSpec& spec,
                               const CampaignInputs& inputs);

struct ReplayResult {
  /// The headline verdict: the replayed bundle serializes to EXACTLY the
  /// recorded bundle's bytes.
  bool match = false;
  bool records_match = false;    ///< recorder-window CSVs byte-equal
  bool telemetry_match = false;  ///< full-run telemetry digests equal
  bool incidents_match = false;  ///< same incidents at the same frames
  std::string recorded_csv;      ///< window CSV from the bundle
  std::string replayed_csv;      ///< window CSV from the re-run
  std::uint64_t recorded_telemetry_digest = 0;
  std::uint64_t replayed_telemetry_digest = 0;
  core::RunSummary summary;  ///< summary of the re-run
};

/// Re-runs a bundle's recorded window from its seed/config against a
/// provisioned model and compares byte-for-byte.  The caller must supply
/// the SAME provisioned model the bundle was recorded with (the bundle
/// names it in context.model but cannot carry the weights).
ReplayResult replay_bundle(const core::IncidentBundle& bundle,
                           const CampaignInputs& inputs);

}  // namespace rrp::sim
