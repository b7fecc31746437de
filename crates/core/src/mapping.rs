//! The mapping result IR shared by MapZero and the baseline mappers.

use crate::{search::IiBounds, supervise::Budget};
use mapzero_arch::{Cgra, PeId};
use mapzero_dfg::{Dfg, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The spatio-temporal coordinate assigned to one DFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Processing element.
    pub pe: PeId,
    /// Absolute time slice.
    pub time: u32,
}

/// One hop of a routed value: the resource parked in at a time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteHop {
    /// Value resides in the output/input register of a PE during a
    /// modulo slice.
    Register {
        /// Hosting PE.
        pe: PeId,
        /// Modulo time slice.
        slot: u32,
    },
    /// Value traverses the crossbar switch of a PE at a slice boundary
    /// (circuit-switched fabrics only).
    Switch {
        /// Hosting PE.
        pe: PeId,
        /// Modulo slice the value arrives in.
        slot: u32,
    },
}

/// A complete valid mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Placement per DFG node, indexed by node id.
    pub placements: Vec<Placement>,
    /// Route per DFG edge, indexed by edge order in the DFG.
    pub routes: Vec<Vec<RouteHop>>,
}

impl Mapping {
    /// Placement of a node.
    #[must_use]
    pub fn placement(&self, node: NodeId) -> Placement {
        self.placements[node.index()]
    }

    /// Number of routing resources claimed in total.
    #[must_use]
    pub fn route_cost(&self) -> usize {
        self.routes.iter().map(Vec::len).sum()
    }
}

/// How far a failed or interrupted mapping attempt got — attached to
/// [`MapError::Timeout`] so callers can triage a budget overrun
/// (almost done vs. hopeless) without re-running the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PartialMapStats {
    /// Best initiation interval for which a complete mapping was found
    /// before the budget ran out (`None` = no complete mapping at all).
    pub best_ii: Option<u32>,
    /// Most nodes simultaneously placed in any attempt.
    pub nodes_placed: usize,
    /// Nodes in the kernel (`nodes_placed == total_nodes` means a full
    /// placement existed but was found after the deadline, or the
    /// deadline hit during the final routing step).
    pub total_nodes: usize,
    /// Backtracking operations across all attempts.
    pub backtracks: u64,
    /// Placement attempts explored across all attempts.
    pub explored: u64,
    /// Most DFG edges simultaneously routed in any attempt — the
    /// routing-side complement of `nodes_placed`.
    pub routed_edges: u64,
}

impl PartialMapStats {
    /// Fold another engine's partial progress into this one. Work
    /// counters (`backtracks`, `explored`) accumulate — both engines
    /// really did that work — while the progress fields (`best_ii`,
    /// `nodes_placed`, `routed_edges`) are carried wholesale from
    /// whichever attempt got further: a complete mapping at a lower II
    /// beats any incomplete attempt, and incomplete attempts compare by
    /// nodes placed, then routed edges.
    ///
    /// This is how the compiler's fallback path keeps the better of the
    /// primary's and the fallback's partial progress when *both* time
    /// out, instead of dropping the fallback's.
    pub fn absorb_better(&mut self, other: &PartialMapStats) {
        self.backtracks += other.backtracks;
        self.explored += other.explored;
        let other_further = match (self.best_ii, other.best_ii) {
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => b < a,
            (None, None) => {
                (other.nodes_placed, other.routed_edges)
                    > (self.nodes_placed, self.routed_edges)
            }
        };
        if other_further {
            self.best_ii = other.best_ii;
            self.nodes_placed = other.nodes_placed;
            self.routed_edges = other.routed_edges;
        }
    }
}

impl fmt::Display for PartialMapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.best_ii {
            Some(ii) => write!(f, "best II {ii}")?,
            None => write!(f, "{}/{} nodes placed", self.nodes_placed, self.total_nodes)?,
        }
        write!(
            f,
            ", {} edges routed, {} backtracks, {} explored",
            self.routed_edges, self.backtracks, self.explored
        )
    }
}

/// Statistics and result of one mapping attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapReport {
    /// The mapper that produced this report.
    pub mapper: String,
    /// The engine that actually produced the mapping: normally the same
    /// as `mapper`, but the fallback engine's name (e.g. "SA") when the
    /// supervisor degraded to a baseline under the remaining deadline.
    pub engine: String,
    /// Kernel name.
    pub kernel: String,
    /// Fabric name.
    pub fabric: String,
    /// Minimum II lower bound for this (kernel, fabric) pair.
    pub mii: u32,
    /// The mapping, if one was found.
    pub mapping: Option<Mapping>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Number of backtracking operations (MapZero / exact) or annealing
    /// steps (SA-family), per Figs. 9–10.
    pub backtracks: u64,
    /// Number of placement attempts explored.
    pub explored: u64,
    /// Whether the attempt hit its time limit. Stays set when a lower
    /// II ended on the clock and a higher II then mapped.
    pub timed_out: bool,
    /// Per-phase budget attribution and metric deltas for this run —
    /// `Some` when telemetry was enabled (see `mapzero_obs`), `None`
    /// otherwise and for mappers that don't capture it.
    pub telemetry: Option<mapzero_obs::RunTelemetry>,
}

impl MapReport {
    /// Achieved II, or `None` when mapping failed (plotted as 0 in
    /// Fig. 8, matching "II of failed mapping is set to 0").
    #[must_use]
    pub fn achieved_ii(&self) -> Option<u32> {
        self.mapping.as_ref().map(|m| m.ii)
    }

    /// II ratio relative to MII (1.0 = optimal, 0.0 = failed).
    #[must_use]
    pub fn ii_ratio(&self) -> f64 {
        match self.achieved_ii() {
            Some(ii) if self.mii > 0 => f64::from(self.mii) / f64::from(ii),
            _ => 0.0,
        }
    }

    /// True when a mapping was found.
    #[must_use]
    pub fn success(&self) -> bool {
        self.mapping.is_some()
    }
}

/// Why a mapping attempt failed.
///
/// The taxonomy separates *structural* failures (`Unmappable`,
/// `NoSchedule` — retrying cannot help), *resource* failures (`Timeout`
/// — retry with a larger budget, guided by the attached
/// [`PartialMapStats`]), *training* failures (`Diverged` — the network
/// optimization blew up past its retry allowance) and *defects*
/// (`Internal` — a contained panic; report it, the process is fine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The DFG needs an operation class no PE supports.
    Unmappable(String),
    /// No schedule exists within the II bound.
    NoSchedule(String),
    /// The budget (wall clock or expansion allowance) ran out before
    /// any complete mapping was found and no fallback engine succeeded.
    Timeout {
        /// How far the search got before the budget expired.
        best_partial: PartialMapStats,
    },
    /// Training diverged (non-finite loss or exploding gradients) and
    /// exhausted its rollback retries.
    Diverged {
        /// Epoch at which the final, unrecoverable divergence occurred.
        epoch: u32,
    },
    /// A panic inside the mapping pipeline was contained and converted
    /// to an error (message includes the panic payload).
    Internal(String),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unmappable(m) => write!(f, "unmappable: {m}"),
            MapError::NoSchedule(m) => write!(f, "no schedule: {m}"),
            MapError::Timeout { best_partial } => {
                write!(f, "budget exhausted ({best_partial})")
            }
            MapError::Diverged { epoch } => {
                write!(f, "training diverged at epoch {epoch} (retries exhausted)")
            }
            MapError::Internal(m) => write!(f, "internal fault: {m}"),
        }
    }
}

impl std::error::Error for MapError {}

/// The one way into every engine: MapZero's [`crate::Compiler`] and
/// every baseline map under the caller's [`Budget`] and II window.
pub trait Mapper {
    /// Human-readable name used in reports ("MapZero", "ILP", "SA",
    /// "LISA").
    fn name(&self) -> &str;

    /// Attempt to map `dfg` onto `cgra` under `budget`, climbing II
    /// through [`crate::search::IiSearch`] over the engine's own window
    /// intersected with `window`. Every engine polls the budget; only
    /// MapZero's MCTS charges its expansion pool.
    ///
    /// # Errors
    /// [`MapError::Timeout`] with the work done when the budget ran out
    /// with no mapping, before the first attempt included (every II
    /// tried in time is an `Ok` report without one);
    /// [`MapError::NoSchedule`] for an empty window;
    /// [`MapError::Unmappable`] when a required op class has no capable
    /// PE; [`MapError::Internal`] for a contained panic.
    fn map(
        &mut self,
        dfg: &Dfg,
        cgra: &Cgra,
        budget: &Budget,
        window: IiBounds,
    ) -> Result<MapReport, MapError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ratios() {
        let report = MapReport {
            mapper: "X".into(),
            engine: "X".into(),
            kernel: "k".into(),
            fabric: "f".into(),
            mii: 2,
            mapping: Some(Mapping { ii: 4, placements: vec![], routes: vec![] }),
            elapsed: Duration::from_millis(5),
            backtracks: 0,
            explored: 1,
            timed_out: false,
            telemetry: None,
        };
        assert!((report.ii_ratio() - 0.5).abs() < 1e-9);
        let failed = MapReport { mapping: None, ..report };
        assert_eq!(failed.ii_ratio(), 0.0);
        assert!(!failed.success());
    }

    #[test]
    fn error_taxonomy_displays_are_distinct_and_informative() {
        let stats = PartialMapStats {
            best_ii: None,
            nodes_placed: 7,
            total_nodes: 12,
            backtracks: 3,
            explored: 40,
            routed_edges: 5,
        };
        let errors = [
            MapError::Unmappable("no memory PE".into()),
            MapError::NoSchedule("II 4 infeasible".into()),
            MapError::Timeout { best_partial: stats },
            MapError::Diverged { epoch: 9 },
            MapError::Internal("router panicked".into()),
        ];
        let texts: Vec<String> = errors.iter().map(ToString::to_string).collect();
        for (i, a) in texts.iter().enumerate() {
            for b in texts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert!(texts[2].contains("7/12 nodes placed"), "{}", texts[2]);
        assert!(texts[3].contains("epoch 9"), "{}", texts[3]);
        assert!(texts[4].contains("router panicked"), "{}", texts[4]);
    }

    #[test]
    fn absorb_better_carries_the_further_attempt_and_sums_work() {
        let base = PartialMapStats {
            best_ii: None,
            nodes_placed: 4,
            total_nodes: 12,
            backtracks: 10,
            explored: 100,
            routed_edges: 3,
        };

        // A fallback that placed more nodes wins the progress fields.
        let mut a = base;
        a.absorb_better(&PartialMapStats {
            nodes_placed: 9,
            routed_edges: 8,
            backtracks: 5,
            explored: 50,
            ..base
        });
        assert_eq!(a.nodes_placed, 9);
        assert_eq!(a.routed_edges, 8);
        assert_eq!((a.backtracks, a.explored), (15, 150));

        // A complete mapping (best_ii) beats any incomplete attempt…
        let mut b = base;
        b.absorb_better(&PartialMapStats { best_ii: Some(5), ..base });
        assert_eq!(b.best_ii, Some(5));

        // …and is never displaced by one.
        let mut c = PartialMapStats { best_ii: Some(3), ..base };
        c.absorb_better(&PartialMapStats { nodes_placed: 12, ..base });
        assert_eq!(c.best_ii, Some(3));
        assert_eq!(c.nodes_placed, 4);

        // Two complete mappings: the lower II is the better one.
        let mut d = PartialMapStats { best_ii: Some(4), ..base };
        d.absorb_better(&PartialMapStats { best_ii: Some(2), ..base });
        assert_eq!(d.best_ii, Some(2));
    }

    #[test]
    fn partial_stats_prefer_best_ii_when_present() {
        let stats = PartialMapStats {
            best_ii: Some(3),
            nodes_placed: 12,
            total_nodes: 12,
            backtracks: 0,
            explored: 5,
            routed_edges: 11,
        };
        assert!(stats.to_string().contains("best II 3"));
    }
}
