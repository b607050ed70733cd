//! `fleet_pack`: a 64-node fleet under `Pack` placement at 0.75 target
//! utilization, stepped epoch by epoch on one thread.

use gpubox_sim::{FleetConfig, FleetRunner, Pack};

use crate::trace::Tracer;
use crate::workload::{sim_counts, Check, Counts, UnitOut, Workload};

/// The fleet workload.
#[derive(Debug)]
pub struct FleetPack {
    /// Workload seed: node seeds and the arrival stream.
    pub seed: u64,
    /// Fleet nodes.
    pub nodes: u32,
    /// Simulated cycles one unit runs the fleet for.
    pub horizon: u64,
}

impl Workload for FleetPack {
    /// A unit consumes the runner it steps.
    type State = Option<FleetRunner>;

    fn setup(&self, t: &mut Tracer) -> Option<FleetRunner> {
        let mut cfg = FleetConfig::new(self.nodes, self.seed).with_target_utilization(0.75);
        cfg.horizon = self.horizon;
        cfg.threads = 1;
        Some(t.span("fleet.new", |_| FleetRunner::new(cfg, Box::new(Pack))))
    }

    fn unit(&self, st: &mut Option<FleetRunner>, t: &mut Tracer, check: &mut Check) -> UnitOut {
        let mut runner = st.take().expect("a fresh runner per unit");
        let epoch = runner.config().epoch;
        while runner.now() < self.horizon {
            let next = runner.now() + epoch;
            t.span("fleet.epoch", |_| runner.run_until(next));
        }
        let report = t.span("fleet.finish", |_| runner.finish());
        let e = &report.exposure;
        let conserved = e.placed + e.queued_end == e.arrived;
        let mut counts = sim_counts(&report.stats);
        check.require(
            counts.contains(&("sim.issued_accesses", e.accesses as f64)),
            "the fleet's folded node stats count every access the exposure counts",
        );
        counts.extend([
            ("fleet.node_epochs", e.node_epochs as f64),
            ("fleet.accesses", e.accesses as f64),
            ("fleet.queued_end", e.queued_end as f64),
            ("fleet.coresidency", e.coresidency()),
            ("fleet.arrived", e.arrived as f64),
            ("fleet.placed", e.placed as f64),
            ("fleet.completed", e.completed as f64),
            ("fleet.batches", e.batches as f64),
            ("fleet.nodes_recycled", e.nodes_recycled as f64),
            ("fleet.link_exposed_windows", e.link_exposed_windows as f64),
        ]);
        UnitOut {
            ops: e.node_epochs,
            // Jobs that are neither placed nor queued were lost.
            failed: if conserved { 0 } else { e.node_epochs },
            counts,
        }
    }

    fn probe(&self, _st: &mut Option<FleetRunner>, _t: &mut Tracer, _check: &mut Check) -> Counts {
        Vec::new()
    }
}
