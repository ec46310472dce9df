// Fundamental identifiers and time units shared by every Themis subsystem.
//
// All simulated time is expressed in *minutes* as a double, matching the
// units the paper reports (lease times, task durations, inter-arrival times).
// Work is expressed in serial GPU-minutes: the time a job would need on a
// single perfectly-placed GPU.
#pragma once

#include <cstdint>
#include <limits>

namespace themis {

using AppId = std::uint32_t;
using JobId = std::uint32_t;
using MachineId = std::uint32_t;
using RackId = std::uint32_t;
using GpuId = std::uint32_t;

/// Simulated wall-clock time in minutes.
using Time = double;

/// Work in serial GPU-minutes.
using Work = double;

inline constexpr Time kInfiniteTime = std::numeric_limits<Time>::infinity();

/// Sentinel used for "no app owns this resource".
inline constexpr AppId kNoApp = std::numeric_limits<AppId>::max();
inline constexpr JobId kNoJob = std::numeric_limits<JobId>::max();

/// Cap used when a finish-time fairness estimate would be unbounded
/// (an app holding zero GPUs). The paper notes the metric "becomes
/// unbounded"; a large finite cap keeps the max-min arithmetic stable while
/// guaranteeing such apps sort ahead of every bounded competitor.
inline constexpr double kUnboundedRho = 1.0e6;

}  // namespace themis
