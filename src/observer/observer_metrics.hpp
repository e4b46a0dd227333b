// Observer-layer telemetry of the OnlineAnalyzer's level loop, which the
// batch ComputationLattice drives too, so both report into the same
// instruments (reset the registry between runs to attribute deltas).
// Internal to src/observer — not part of the public observer API.
#pragma once

#include "telemetry/metrics.hpp"

namespace mpx::observer {

struct ObserverMetrics {
  telemetry::Counter& levels;
  telemetry::Counter& nodesCreated;
  telemetry::Counter& nodesGc;
  telemetry::Counter& violations;
  telemetry::Histogram& frontierWidth;
  telemetry::Histogram& levelNs;
  telemetry::Gauge& monitorStatesPeak;
  telemetry::Gauge& backlogHwm;
  telemetry::Gauge& internHitRate;
  telemetry::Gauge& budgetLimit;
  telemetry::Gauge& budgetAccounted;
  telemetry::Gauge& budgetPeak;
  telemetry::Gauge& degradedMode;
  telemetry::Counter& degradedLevels;
  telemetry::Counter& degradedNodesDropped;

  static ObserverMetrics& get() {
    static ObserverMetrics m{
        telemetry::registry().counter(
            "mpx_observer_levels_advanced_total",
            "Lattice levels constructed beyond level 0"),
        telemetry::registry().counter(
            "mpx_observer_nodes_created_total",
            "Lattice nodes (consistent cuts) created by level expansion"),
        telemetry::registry().counter(
            "mpx_observer_nodes_gc_total",
            "Lattice nodes released as the sliding window advanced"),
        telemetry::registry().counter(
            "mpx_observer_violations_total",
            "Property violations reported across all analyzed runs"),
        telemetry::registry().histogram(
            "mpx_observer_frontier_width", "Nodes per completed level",
            telemetry::sizeBuckets()),
        telemetry::registry().histogram(
            "mpx_observer_level_ns", "Wall time to expand one lattice level"),
        telemetry::registry().gauge(
            "mpx_observer_monitor_states_peak",
            "High-water mark of distinct monitor states on one node"),
        telemetry::registry().gauge(
            "mpx_observer_backlog_hwm",
            "High-water mark of buffered messages awaiting lattice "
            "consumption (online analyzer only)"),
        telemetry::registry().gauge(
            "mpx_observer_intern_hit_rate_percent",
            "Lattice edges that reached an already-built cut, percent "
            "(most recent run)"),
        telemetry::registry().gauge(
            "mpx_observer_budget_limit_bytes",
            "Configured memory budget for the accounted working set "
            "(0 = unlimited)"),
        telemetry::registry().gauge(
            "mpx_observer_budget_accounted_bytes",
            "Accounted working set (monitor-set arena + live frontiers) "
            "after the last completed level, under the deterministic byte "
            "model"),
        telemetry::registry().gauge(
            "mpx_observer_budget_peak_bytes",
            "High-water mark of the accounted working set"),
        telemetry::registry().gauge(
            "mpx_analysis_degraded_mode",
            "Deepest degradation rung entered: 0 = full lattice, "
            "1 = sampled frontier, 2 = observed path only"),
        telemetry::registry().counter(
            "mpx_analysis_degraded_levels_total",
            "Lattice levels on which the degradation ladder shed nodes"),
        telemetry::registry().counter(
            "mpx_analysis_degraded_nodes_dropped_total",
            "Frontier nodes shed by the degradation ladder"),
    };
    return m;
  }
};

}  // namespace mpx::observer
