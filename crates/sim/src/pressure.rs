//! Port-contention pressure: how many *other* agents touched a GPU's L2
//! ports within the last `window` cycles.
//!
//! Every noisy access asks its home GPU's tracker (and, for a remote
//! access without the timed fabric, the home GPU's NVLink tracker) for
//! the pressure it sees, then records itself. The model is defined by a
//! scan of the window from the newest arrival backwards;
//! [`PressureTracker`] returns the scan's number for every input without
//! scanning, and the scan itself is this module's test oracle.

use crate::system::AgentId;
use std::collections::VecDeque;

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
/// **Why the incremental answer is exact.** Number the arrivals with a
/// sequence counter. Let `i` be the last arrival with `t < cutoff`: the
/// scan passes exactly the arrivals after `i`. Every arrival after `i`
/// has `t ≥ cutoff > t_i`, so `i` is a *strict suffix minimum* — smaller
/// than everything after it. `minima` keeps all strict suffix minima,
/// oldest first; their timestamps strictly increase, so those below
/// `cutoff` form a prefix and its last element is `i`
/// (`partition_point`). An agent was passed by the scan iff its latest
/// arrival comes after `i`, so the answer is the number of non-caller
/// agents in `last_seen` whose sequence number exceeds `i`'s (or, when no
/// kept arrival is older than the cutoff, is at least the oldest kept
/// one's). Front trimming drops stale entries from `minima` (they are its
/// oldest): an arrival that leaves the front never changes which later
/// arrivals are suffix minima. An agent whose arrivals have all left
/// keeps its `last_seen` entry until the next new agent arrives, but its
/// sequence number is below every kept one, so it is never counted.
///
/// `pressure` costs O(log window + live agents) and `record` amortised
/// O(live agents) — against O(window · agents) for the scan. Nothing is
/// allocated up front: buffers grow to the steady-state window on first
/// use and are never shrunk, so a warm loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PressureTracker {
    /// Arrival timestamps, oldest first. The arrival at index `k` has
    /// sequence number `next_seq - times.len() + k`.
    times: VecDeque<u64>,
    /// `(timestamp, sequence)` of every strict suffix minimum of
    /// `times`, oldest first; strictly increasing in both fields.
    minima: VecDeque<(u64, u64)>,
    /// `(agent, sequence of its latest arrival)` for every agent with an
    /// arrival still in `times`, plus agents that left since the last new
    /// agent arrived.
    last_seen: Vec<(u32, u64)>,
    /// Sequence number of the next arrival.
    next_seq: u64,
}

impl PressureTracker {
    /// Sequence number of the oldest kept arrival.
    fn head(&self) -> u64 {
        self.next_seq - self.times.len() as u64
    }

    /// Forgets every arrival (buffers keep their capacity).
    pub(crate) fn clear(&mut self) {
        self.times.clear();
        self.minima.clear();
        self.last_seen.clear();
    }

    /// Records an arrival of `agent` at `now`, then trims arrivals older
    /// than `now - window` from the front and caps the history.
    pub(crate) fn record(&mut self, now: u64, agent: AgentId, window: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.times.push_back(now);
        while matches!(self.minima.back(), Some(&(t, _)) if t >= now) {
            self.minima.pop_back();
        }
        self.minima.push_back((now, seq));
        match self.last_seen.iter_mut().find(|(a, _)| *a == agent.0) {
            Some(entry) => entry.1 = seq,
            None => {
                // Agents whose arrivals all left the history are dropped
                // here, so departed agents never accumulate.
                let head = self.head();
                self.last_seen.retain(|&(_, s)| s >= head);
                self.last_seen.push((agent.0, seq));
            }
        }

        let cutoff = now.saturating_sub(window);
        let len = self.times.len();
        while matches!(self.times.front(), Some(&t) if t < cutoff) {
            self.times.pop_front();
        }
        while self.times.len() > PRESSURE_WINDOW_CAP {
            self.times.pop_front();
        }
        if self.times.len() < len {
            let head = self.head();
            while matches!(self.minima.front(), Some(&(_, s)) if s < head) {
                self.minima.pop_front();
            }
        }
    }

    /// The number of distinct agents other than `agent` that the rear
    /// scan of the window ending at `now` passes (see the type docs).
    pub(crate) fn pressure(&self, now: u64, agent: AgentId, window: u64) -> u32 {
        // Nobody else in the history (a lone prober): skip the search.
        match self.last_seen[..] {
            [] => return 0,
            [(a, _)] if a == agent.0 => return 0,
            _ => {}
        }
        let cutoff = now.saturating_sub(window);
        let stale = self.minima.partition_point(|&(t, _)| t < cutoff);
        let first = match stale {
            0 => self.head(),
            k => self.minima[k - 1].1 + 1,
        };
        self.last_seen
            .iter()
            .filter(|&&(a, s)| s >= first && a != agent.0)
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
                fast.times.len(),
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
