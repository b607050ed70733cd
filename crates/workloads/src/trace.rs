//! Memory-access traces and their replay agent.
//!
//! A [`Trace`] is never materialised. It holds a factory that starts a
//! fresh generator of the workload's ops, so one trace can be walked
//! any number of times, each pass producing the same ops.

use gpubox_sim::{
    Agent, MultiGpuSystem, Op, OpResult, ProbeStage, ProcessCtx, ProcessId, SimResult, VirtAddr,
};
use std::fmt;

/// One step of a workload's memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Load one word (the line containing it is what matters to the L2).
    Load(VirtAddr),
    /// Store one word.
    Store(VirtAddr, u64),
    /// ALU/SFU work for the given cycles.
    Compute(u64),
}

impl TraceOp {
    /// A load of element `idx` (8-byte words) of `base`.
    pub fn load(base: VirtAddr, idx: u64) -> Self {
        TraceOp::Load(base.offset(idx * 8))
    }

    /// A store of `value` to element `idx` of `base`.
    pub fn store(base: VirtAddr, idx: u64, value: u64) -> Self {
        TraceOp::Store(base.offset(idx * 8), value)
    }
}

/// Ops pulled from a generator per refill of an [`Ops`] buffer: one
/// dynamic call per chunk instead of one per op.
const CHUNK: usize = 256;

/// A type-erased op generator that refills a buffer in chunks.
trait Refill {
    /// Appends the next ops to the empty `buf`, merging adjacent
    /// computes. Stops after at least [`CHUNK`] ops, but never on a
    /// compute, so a run of computes is never split across refills.
    /// Appends nothing once the generator is exhausted.
    fn refill(&mut self, buf: &mut Vec<TraceOp>);
}

impl<I: Iterator<Item = TraceOp>> Refill for I {
    fn refill(&mut self, buf: &mut Vec<TraceOp>) {
        for op in self {
            match (op, buf.last_mut()) {
                (TraceOp::Compute(more), Some(TraceOp::Compute(cycles))) => *cycles += more,
                _ => buf.push(op),
            }
            if buf.len() >= CHUNK && !matches!(op, TraceOp::Compute(_)) {
                return;
            }
        }
    }
}

/// A workload's op stream, generated on demand.
pub struct Trace {
    factory: Box<dyn Fn() -> Box<dyn Refill>>,
}

impl Trace {
    /// Wraps a generator factory. Every call must yield the same ops, so
    /// any state the generation advances (running counters, ...) belongs
    /// inside `factory`, not in what it captures.
    pub fn new<F, I>(factory: F) -> Self
    where
        F: Fn() -> I + 'static,
        I: Iterator<Item = TraceOp> + 'static,
    {
        Trace {
            factory: Box::new(move || Box::new(factory().fuse())),
        }
    }

    /// A fresh pass over the ops, with adjacent computes merged into one.
    pub fn ops(&self) -> Ops {
        Ops {
            source: (self.factory)(),
            buf: Vec::with_capacity(CHUNK + 1),
            next: 0,
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace").finish_non_exhaustive()
    }
}

/// One pass over a [`Trace`].
pub struct Ops {
    source: Box<dyn Refill>,
    buf: Vec<TraceOp>,
    next: usize,
}

impl Iterator for Ops {
    type Item = TraceOp;

    #[inline]
    fn next(&mut self) -> Option<TraceOp> {
        if self.next == self.buf.len() {
            self.buf.clear();
            self.next = 0;
            self.source.refill(&mut self.buf);
        }
        let op = *self.buf.get(self.next)?;
        self.next += 1;
        Some(op)
    }
}

impl fmt::Debug for Ops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ops")
            .field("buffered", &(self.buf.len() - self.next))
            .finish_non_exhaustive()
    }
}

/// Replays a workload trace as an engine agent, pulling ops on demand.
#[derive(Debug)]
pub struct TraceAgent {
    pid: ProcessId,
    ops: Ops,
}

impl TraceAgent {
    /// Starts a replay of `trace`.
    pub fn new(pid: ProcessId, trace: &Trace) -> Self {
        TraceAgent {
            pid,
            ops: trace.ops(),
        }
    }
}

impl Agent for TraceAgent {
    fn next_op(&mut self, _now: u64, _stage: &mut ProbeStage) -> Op {
        match self.ops.next() {
            Some(TraceOp::Load(va)) => Op::Load(va),
            Some(TraceOp::Store(va, v)) => Op::Store(va, v),
            Some(TraceOp::Compute(c)) => Op::Compute(c),
            None => Op::Done,
        }
    }

    fn on_result(&mut self, _res: &OpResult<'_>) {}

    fn process(&self) -> ProcessId {
        self.pid
    }

    fn label(&self) -> &str {
        "victim"
    }
}

/// Builds a workload's trace inside `sys` (allocating its buffers on the
/// process home GPU) and wraps it in a replay agent.
///
/// # Errors
///
/// Propagates allocation failures.
pub fn agent_for(
    sys: &mut MultiGpuSystem,
    pid: ProcessId,
    workload: &dyn crate::Workload,
) -> SimResult<TraceAgent> {
    let mut ctx = ProcessCtx::new(sys, pid, 0);
    let trace = workload.build(&mut ctx)?;
    Ok(TraceAgent::new(pid, &trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_merge_adjacent_computes() {
        let trace = Trace::new(|| {
            [
                TraceOp::Compute(10),
                TraceOp::Compute(5),
                TraceOp::load(VirtAddr(4096), 0),
                TraceOp::Compute(3),
                TraceOp::Compute(0),
            ]
            .into_iter()
        });
        let ops: Vec<_> = trace.ops().collect();
        assert_eq!(
            ops,
            [
                TraceOp::Compute(15),
                TraceOp::Load(VirtAddr(4096)),
                TraceOp::Compute(3)
            ]
        );
    }

    #[test]
    fn compute_runs_merge_across_refills() {
        // Long enough that the runs of computes meet refill boundaries.
        let trace = Trace::new(|| {
            (0..3 * CHUNK as u64).flat_map(|i| {
                [
                    TraceOp::load(VirtAddr(4096), i),
                    TraceOp::Compute(1),
                    TraceOp::Compute(i % 3),
                ]
            })
        });
        let ops: Vec<_> = trace.ops().collect();
        assert_eq!(ops.len(), 6 * CHUNK);
        for (i, pair) in ops.chunks(2).enumerate() {
            let i = i as u64;
            assert_eq!(
                pair,
                [
                    TraceOp::load(VirtAddr(4096), i),
                    TraceOp::Compute(1 + i % 3)
                ]
            );
        }
    }

    #[test]
    fn agent_replays_in_order_then_finishes() {
        let trace = Trace::new(|| {
            [
                TraceOp::load(VirtAddr(4096), 0),
                TraceOp::Compute(7),
                TraceOp::store(VirtAddr(4096), 1, 9),
            ]
            .into_iter()
        });
        let mut a = TraceAgent::new(ProcessId(0), &trace);
        let mut stage = ProbeStage::new();
        assert_eq!(a.next_op(0, &mut stage), Op::Load(VirtAddr(4096)));
        assert_eq!(a.next_op(0, &mut stage), Op::Compute(7));
        assert_eq!(a.next_op(0, &mut stage), Op::Store(VirtAddr(4104), 9));
        assert_eq!(a.next_op(0, &mut stage), Op::Done);
        assert_eq!(a.next_op(0, &mut stage), Op::Done);
    }
}
