// speed_probe.h — how fast the host runs fixed work right now.
//
// On a host whose cores are shared with other tenants, neighbours slow
// whole stretches of a run — from a fraction of a second to minutes — by
// up to 1.7x.  Minute-long slow phases swallow entire runs, so no statistic
// inside a run can filter them out.  Instead, the benchmark times fixed
// float kernels (its own code, no rrp code, so no change under test can
// move them) during and after each measured window, and reports times at
// the reference speed: a window's times are scaled by
// reference / (median probe time of the window).
//
// Two kernels, because neighbours do not slow all code alike.  Over
// 40-50 s runs, the window's median inference frame slowed with a
// log-slope of 1.3-1.9 against the dense kernel and 0.8-0.9 against the
// branchy one, and the slopes moved with the neighbours' load; against
// the geometric mean of the two it stayed at 1.0-1.05 (detnet frames).
// Scrub frames, the tail, follow the dense kernel best.
#pragma once

namespace perfbench {

/// The probes' times on an unloaded core of the reference host (a 4-vCPU
/// Intel Xeon VM), in µs.  Only units: any constants give the same
/// parent-vs-change ratios.
inline constexpr double kReferenceProbeUs = 11.5;
inline constexpr double kReferenceBranchyProbeUs = 6.0;

/// Median wall µs of five runs of a dense 48^3 float GEMM.
double probe_us();

/// Median wall µs of five runs of the same GEMM with half the left
/// operand zero, skipped by a data-dependent branch.
double branchy_probe_us();

}  // namespace perfbench
