//! Port-contention pressure: how many *other* agents touched a GPU's L2
//! ports within the last `window` cycles.
//!
//! Every noisy access asks its home GPU's tracker (and, for a remote
//! access without the timed fabric, the home GPU's NVLink tracker) for
//! the pressure it sees, then records itself. The model is defined by a
//! scan of the window from the newest arrival backwards;
//! [`PressureTracker`] returns the scan's number for every input from
//! one pass over the live agents, and the scan itself is this module's
//! test oracle.
//!
//! **Why one pass over the agents is exact.** The rear scan walks back
//! from the newest kept arrival and stops at the first one older than
//! `cutoff = now - window`; it counts agent A exactly when it reaches
//! A's latest arrival, since every earlier arrival of A lies further
//! back. It reaches that arrival iff (1) the arrival is still kept, and
//! (2) no kept arrival from it onward is older than the cutoff. Every
//! arrival after a kept one is kept too (trimming only drops the
//! front), so (2) reads `suffix_min ≥ cutoff`, where `suffix_min` is
//! the smallest timestamp among A's latest arrival and everything
//! recorded after it. `record` maintains it for every agent: a new
//! arrival of B restarts B's at `now` and lowers every other agent's to
//! at most `now`. Condition (1) is `seq ≥ head`. Front trimming changes
//! neither value for an agent whose latest arrival stays kept, so
//! `pressure` just counts the non-caller agents meeting both.

use crate::system::AgentId;

/// Hard bound on the arrivals a tracker keeps (memory stays bounded even
/// if agent clocks go backwards between agents).
const PRESSURE_WINDOW_CAP: usize = 4096;

/// Recent arrivals at one GPU, answering "how many distinct agents other
/// than the caller arrived in the window ending at `now`?".
///
/// **The model** is a rear scan: arrivals are kept in arrival order.
/// `record` appends one, then trims the front while the front timestamp
/// is older than `now - window`, then while more than
/// [`PRESSURE_WINDOW_CAP`] remain. `pressure` walks back from the newest
/// arrival, stops at the first one older than `now - window`, and counts
/// the distinct non-caller agents it passed. Timestamps need not be
/// monotone (a warp batch records `now + 24·i`, agent clocks lag each
/// other), so the walk can stop before entries that are themselves in
/// the window, and the trim can leave stale entries behind a fresh front.
///
/// Both `pressure` and `record` cost O(live agents) with no search (the
/// module docs prove the count exact), against O(window · agents) for
/// the scan. Nothing is allocated up front: the ring and the agent list
/// grow to the steady-state window on first use and are never shrunk,
/// so a warm loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PressureTracker {
    /// Arrival timestamps, the arrival with sequence number `s` at
    /// `ring[s % ring.len()]`. Its length is zero or a power of two and
    /// doubles when every slot holds a kept arrival.
    ring: Vec<u64>,
    /// Sequence number of the oldest kept arrival.
    head: u64,
    /// Sequence number of the next arrival.
    next_seq: u64,
    /// Every agent with an arrival still kept, plus agents that left
    /// since the last new agent arrived.
    last_seen: Vec<Seen>,
}

/// One agent's entry in [`PressureTracker::last_seen`].
#[derive(Debug, Clone, Copy)]
struct Seen {
    agent: u32,
    /// Sequence number of the agent's latest arrival.
    seq: u64,
    /// Smallest timestamp among that arrival and every later one.
    suffix_min: u64,
}

impl PressureTracker {
    /// Number of kept arrivals.
    fn kept(&self) -> usize {
        (self.next_seq - self.head) as usize
    }

    /// Ring index of the arrival with sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        seq as usize & (self.ring.len() - 1)
    }

    /// Forgets every arrival (buffers keep their capacity).
    pub(crate) fn clear(&mut self) {
        self.head = self.next_seq;
        self.last_seen.clear();
    }

    /// Records an arrival of `agent` at `now`, then trims arrivals older
    /// than `now - window` from the front and caps the history.
    pub(crate) fn record(&mut self, now: u64, agent: AgentId, window: u64) {
        if self.kept() == self.ring.len() {
            self.grow();
        }
        let seq = self.next_seq;
        let slot = self.slot(seq);
        self.ring[slot] = now;
        self.next_seq += 1;

        let mut found = false;
        for e in &mut self.last_seen {
            if e.agent == agent.0 {
                e.seq = seq;
                e.suffix_min = now;
                found = true;
            } else {
                e.suffix_min = e.suffix_min.min(now);
            }
        }
        if !found {
            // Agents whose arrivals all left the history are dropped
            // here, so departed agents never accumulate.
            let head = self.head;
            self.last_seen.retain(|e| e.seq >= head);
            self.last_seen.push(Seen {
                agent: agent.0,
                seq,
                suffix_min: now,
            });
        }

        let cutoff = now.saturating_sub(window);
        while self.head < self.next_seq && self.ring[self.slot(self.head)] < cutoff {
            self.head += 1;
        }
        let capped = self.next_seq.saturating_sub(PRESSURE_WINDOW_CAP as u64);
        self.head = self.head.max(capped);
    }

    /// Doubles the ring, moving every kept arrival to its new slot.
    fn grow(&mut self) {
        let mut ring = vec![0; (2 * self.ring.len()).max(8)];
        let mask = ring.len() - 1;
        for seq in self.head..self.next_seq {
            ring[seq as usize & mask] = self.ring[self.slot(seq)];
        }
        self.ring = ring;
    }

    /// The number of distinct agents other than `agent` that the rear
    /// scan of the window ending at `now` passes (see the module docs).
    pub(crate) fn pressure(&self, now: u64, agent: AgentId, window: u64) -> u32 {
        let cutoff = now.saturating_sub(window);
        self.last_seen
            .iter()
            .filter(|e| e.agent != agent.0 && e.seq >= self.head && e.suffix_min >= cutoff)
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The model itself: a rear scan of the window with a distinct-agent
    /// scratch list. The oracle for [`PressureTracker`].
    #[derive(Default)]
    struct ScanTracker {
        recent: VecDeque<(u64, u32)>,
        scratch: Vec<u32>,
    }

    impl ScanTracker {
        fn clear(&mut self) {
            self.recent.clear();
        }

        fn record(&mut self, now: u64, agent: AgentId, window: u64) {
            self.recent.push_back((now, agent.0));
            let cutoff = now.saturating_sub(window);
            while matches!(self.recent.front(), Some(&(t, _)) if t < cutoff) {
                self.recent.pop_front();
            }
            while self.recent.len() > PRESSURE_WINDOW_CAP {
                self.recent.pop_front();
            }
        }

        fn pressure(&mut self, now: u64, agent: AgentId, window: u64) -> u32 {
            let cutoff = now.saturating_sub(window);
            self.scratch.clear();
            for &(t, a) in self.recent.iter().rev() {
                if t < cutoff {
                    break;
                }
                if a != agent.0 && !self.scratch.contains(&a) {
                    self.scratch.push(a);
                }
            }
            self.scratch.len() as u32
        }
    }

    /// One step of a random tracker workload.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `pressure` then `record`, as the access path does.
        Access { agent: u32, offset: u64 },
        /// A lone `record` (the caller's pressure was not asked).
        Record { agent: u32, offset: u64 },
        /// A lone query from an agent's lagging or leading clock.
        Query { agent: u32, offset: u64 },
        /// `reset_timing_state`: agent ids restart from zero afterwards.
        Clear,
    }

    /// Random steps over `agents` agent ids. The clock advances by up to
    /// `stride` per step; each step's time is the clock plus an offset
    /// in `[0, 2·jitter)` taken `jitter` back, so timestamps regularly go
    /// backwards (warp-batch offsets, lagging agent clocks).
    fn steps(
        agents: u32,
        stride: u64,
        jitter: u64,
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(u8, u32, u64, u64)>> {
        prop::collection::vec((0u8..100, 0..agents, 0..=stride, 0..2 * jitter), len)
    }

    fn decode((kind, agent, _, offset): (u8, u32, u64, u64), clear_below: u8) -> Step {
        match kind {
            k if k < clear_below => Step::Clear,
            k if k < 70 => Step::Access { agent, offset },
            k if k < 85 => Step::Record { agent, offset },
            _ => Step::Query { agent, offset },
        }
    }

    /// Asks both trackers for `agent`'s pressure at `now`.
    fn agree(
        fast: &PressureTracker,
        oracle: &mut ScanTracker,
        now: u64,
        agent: u32,
        window: u64,
    ) -> Result<(), String> {
        let a = AgentId(agent);
        let (got, want) = (
            fast.pressure(now, a, window),
            oracle.pressure(now, a, window),
        );
        prop_assert_eq!(
            got,
            want,
            "agent {} at {}: {} vs oracle {}",
            agent,
            now,
            got,
            want
        );
        Ok(())
    }

    /// Runs both trackers over `raw` and checks that they agree on every
    /// query, on the kept history's length, and on the pressure a few
    /// agents (one never seen) would see after each step.
    fn check_agreement(
        raw: &[(u8, u32, u64, u64)],
        agents: u32,
        jitter: u64,
        window: u64,
        clear_below: u8,
    ) -> Result<(), String> {
        let mut fast = PressureTracker::default();
        let mut oracle = ScanTracker::default();
        // Starts high enough that `clock - jitter` never underflows.
        let mut clock = jitter;
        for (i, &r) in raw.iter().enumerate() {
            clock += r.2;
            let at = |offset: u64| clock + offset - jitter;
            let step = |e: String| format!("step {i}: {e}");
            match decode(r, clear_below) {
                Step::Access { agent, offset } => {
                    agree(&fast, &mut oracle, at(offset), agent, window).map_err(step)?;
                    fast.record(at(offset), AgentId(agent), window);
                    oracle.record(at(offset), AgentId(agent), window);
                }
                Step::Record { agent, offset } => {
                    fast.record(at(offset), AgentId(agent), window);
                    oracle.record(at(offset), AgentId(agent), window);
                }
                Step::Query { agent, offset } => {
                    agree(&fast, &mut oracle, at(offset), agent, window).map_err(step)?;
                }
                Step::Clear => {
                    fast.clear();
                    oracle.clear();
                }
            }
            prop_assert_eq!(
                fast.kept(),
                oracle.recent.len(),
                "step {}: history length",
                i
            );
            for agent in [0, agents / 2, agents - 1, agents] {
                agree(&fast, &mut oracle, at(jitter), agent, window).map_err(step)?;
            }
        }
        Ok(())
    }

    /// The side channel's shape: agent 0 issues warp batches — runs of
    /// 16 arrivals at +24 cycles, one run about every 1,000 cycles — and
    /// 1–3 other agents drop scalar arrivals, up to `jitter` behind agent
    /// 0's clock, between the lines of a run.
    fn batch_runs(jitter: u64) -> impl Strategy<Value = Vec<(u8, u32, u64, u64)>> {
        (1u32..=3)
            .prop_flat_map(move |others| {
                let scalar = (0u64..16, 1..=others, 0..jitter);
                prop::collection::vec((600u64..1400, prop::collection::vec(scalar, 0..5)), 1..150)
            })
            .prop_map(move |rounds| {
                let mut raw = Vec::new();
                for (gap, mut scalars) in rounds {
                    scalars.sort_unstable_by_key(|&(line, _, _)| line);
                    let mut scalars = scalars.into_iter().peekable();
                    for line in 0..16 {
                        while let Some((_, agent, lag)) = scalars.next_if(|s| s.0 == line) {
                            raw.push((0, agent, 0, jitter - lag));
                        }
                        let stride = if line == 0 { gap } else { 24 };
                        raw.push((0, 0, stride, jitter));
                    }
                }
                raw
            })
    }

    /// Windows from "shorter than the jitter" through the default 2,000
    /// cycles to "never trims by time".
    fn windows() -> impl Strategy<Value = u64> {
        (0usize..4).prop_map(|k| [50, 700, 2000, u64::MAX][k])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Few agents, issue times jittered by up to two batch spans,
        /// occasional clears.
        #[test]
        fn agrees_with_scan_on_jittered_timestamps(
            raw in steps(6, 300, 400, 1..1500),
            window in windows(),
        ) {
            check_agreement(&raw, 6, 400, window, 1)?;
        }

        /// More than 64 distinct agents inside one window, with ids
        /// reused after clears (as after `canonicalize_phase` restarts
        /// the agent counter).
        #[test]
        fn agrees_with_scan_beyond_64_agents(
            raw in steps(97, 16, 2500, 1..1500),
            window in windows(),
        ) {
            check_agreement(&raw, 97, 2500, window, 2)?;
        }

        /// Warp-batch runs with lagging scalar arrivals at the default
        /// 2,000-cycle window: both GPU trackers' load in the side channel.
        #[test]
        fn agrees_with_scan_on_batch_runs(raw in batch_runs(2500)) {
            check_agreement(&raw, 4, 2500, 2000, 0)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// More arrivals per window than the cap holds, so the front is
        /// trimmed by count; the jitter equals the window, so queries
        /// still stop inside the kept history and records still trim
        /// stale fronts by time.
        #[test]
        fn agrees_with_scan_when_the_cap_trims(
            raw in steps(9, 1, 3000, 8000..9000),
            window in (0usize..2).prop_map(|k| [3000, u64::MAX][k]),
        ) {
            check_agreement(&raw, 9, 3000, window, 0)?;
        }
    }

    #[test]
    fn cap_bounds_the_ring() {
        let mut t = PressureTracker::default();
        for i in 0..10_000 {
            t.record(i, AgentId((i % 3) as u32), 20_000);
        }
        assert_eq!(t.kept(), PRESSURE_WINDOW_CAP);
        assert!(t.ring.len() <= 2 * PRESSURE_WINDOW_CAP, "{}", t.ring.len());
    }

    #[test]
    fn scan_stops_at_a_stale_entry_behind_fresh_ones() {
        // Agent 1's arrival at 3000 sits behind agent 2's stale one at 10:
        // the rear scan from t = 2500 (cutoff 500) stops at 10, so agent 1
        // is not counted even though its own arrival is inside the window.
        let mut t = PressureTracker::default();
        t.record(3000, AgentId(1), 2000);
        t.record(10, AgentId(2), 2000);
        t.record(2400, AgentId(3), 2000);
        assert_eq!(t.pressure(2500, AgentId(9), 2000), 1);
        // From t = 1900 (cutoff 0) nothing is stale: all three count.
        assert_eq!(t.pressure(1900, AgentId(9), 2000), 3);
    }
}
