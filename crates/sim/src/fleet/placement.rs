//! Placement policies and the free-slot index that keeps every
//! decision O(log n) in the number of nodes.
//!
//! [`Occupancy`] tracks which (node, GPU slot) pairs are occupied and
//! by which tenant, and maintains one fixed segment tree over per-node
//! free-slot counts. All policy queries — most-packed node, least-packed
//! node, fully-empty node, global k-th free slot — are single
//! descents of that tree, so a fleet of thousands of nodes costs a
//! placement decision ~log2(nodes) probes, not a linear scan. The tree
//! is allocated once at construction and never grows: updates and
//! queries are allocation-free, which the fleet steady-state
//! counting-allocator test relies on.

use super::arrivals::{JobSpec, TenantId};
use crate::draw::{indexed_draw, SALT_PLACEMENT};
use crate::topology::Topology;

/// A concrete placement target: GPU slot `slot` of fleet node `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotAddr {
    /// Fleet node index.
    pub node: u32,
    /// GPU index within the node.
    pub slot: u32,
}

/// What occupies a slot: the tenant plus the job's service window
/// (open-loop arrivals declare their duration, so the end is known at
/// placement time — exposure windows are computed exactly, not sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTag {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Cycle service began.
    pub start: u64,
    /// Cycle service ends (exclusive).
    pub end: u64,
}

/// Fixed segment tree over per-node free-slot counts. Each internal
/// node stores (max free, min *positive* free, total free) of its
/// range, so the three policy-relevant extrema and weighted random
/// selection are all one root-to-leaf descent.
#[derive(Debug, Clone)]
struct SlotIndex {
    /// Leaf count, padded to a power of two.
    size: usize,
    /// Slots per node.
    cap: u32,
    /// `max free` per segment (`2*size` entries, root at 1).
    max_f: Vec<u32>,
    /// `min positive free` per segment (`u32::MAX` when every node in
    /// the range is full).
    min_pos: Vec<u32>,
    /// `sum of free` per segment.
    sum: Vec<u64>,
}

impl SlotIndex {
    fn new(nodes: u32, cap: u32) -> Self {
        let size = (nodes as usize).next_power_of_two().max(1);
        let mut idx = SlotIndex {
            size,
            cap,
            max_f: vec![0; 2 * size],
            min_pos: vec![u32::MAX; 2 * size],
            sum: vec![0; 2 * size],
        };
        for n in 0..nodes as usize {
            idx.max_f[size + n] = cap;
            idx.min_pos[size + n] = cap;
            idx.sum[size + n] = u64::from(cap);
        }
        // Padding leaves stay (0, MAX, 0): never selectable.
        for i in (1..size).rev() {
            idx.pull(i);
        }
        idx
    }

    #[inline]
    fn pull(&mut self, i: usize) {
        let (l, r) = (2 * i, 2 * i + 1);
        self.max_f[i] = self.max_f[l].max(self.max_f[r]);
        self.min_pos[i] = self.min_pos[l].min(self.min_pos[r]);
        self.sum[i] = self.sum[l] + self.sum[r];
    }

    /// Sets node `n`'s free count and fixes the path to the root.
    fn set(&mut self, n: usize, free: u32) {
        let mut i = self.size + n;
        self.max_f[i] = free;
        self.min_pos[i] = if free == 0 { u32::MAX } else { free };
        self.sum[i] = u64::from(free);
        i /= 2;
        while i >= 1 {
            self.pull(i);
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    fn total(&self) -> u64 {
        self.sum[1]
    }

    /// Leftmost node with the globally maximal free count (> 0).
    fn least_packed(&self) -> Option<usize> {
        if self.max_f[1] == 0 {
            return None;
        }
        let mut i = 1;
        while i < self.size {
            i = if self.max_f[2 * i] == self.max_f[i] {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(i - self.size)
    }

    /// Leftmost node with the globally minimal *positive* free count —
    /// the fullest node that still has room.
    fn most_packed(&self) -> Option<usize> {
        if self.min_pos[1] == u32::MAX {
            return None;
        }
        let mut i = 1;
        while i < self.size {
            i = if self.min_pos[2 * i] == self.min_pos[i] {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(i - self.size)
    }

    /// Leftmost completely empty node.
    fn empty(&self) -> Option<usize> {
        if self.max_f[1] < self.cap {
            return None;
        }
        let mut i = 1;
        while i < self.size {
            i = if self.max_f[2 * i] == self.cap {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(i - self.size)
    }

    /// The node holding the global `k`-th free slot (0-based, `k` <
    /// [`SlotIndex::total`]) and the residual rank within that node.
    fn kth(&self, mut k: u64) -> (usize, u32) {
        debug_assert!(k < self.total());
        let mut i = 1;
        while i < self.size {
            let left = self.sum[2 * i];
            i = if k < left {
                2 * i
            } else {
                k -= left;
                2 * i + 1
            };
        }
        (i - self.size, k as u32)
    }
}

/// Fleet-wide slot occupancy: who runs where, with O(log n) queries for
/// every placement policy.
#[derive(Debug, Clone)]
pub struct Occupancy {
    nodes: u32,
    cap: u32,
    /// `node * cap + slot` → occupant.
    occupant: Vec<Option<JobTag>>,
    idx: SlotIndex,
    /// Per-slot direct-NVLink neighbours within a node (identical for
    /// every node — the fleet is homogeneous).
    adj: Vec<Vec<u32>>,
}

impl Occupancy {
    /// An empty fleet of `nodes` nodes whose intra-node slot adjacency
    /// comes from `topo` (slots are link-adjacent iff the GPUs share a
    /// direct NVLink — the co-residency surface the link channel needs).
    pub fn new(nodes: u32, topo: &Topology) -> Self {
        let cap = u32::from(topo.num_gpus());
        let adj = (0..topo.num_gpus())
            .map(|g| {
                topo.peers(crate::address::GpuId::new(g))
                    .map(|p| p.index() as u32)
                    .collect()
            })
            .collect();
        Occupancy {
            nodes,
            cap,
            occupant: vec![None; nodes as usize * cap as usize],
            idx: SlotIndex::new(nodes, cap),
            adj,
        }
    }

    /// Fleet node count.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// GPU slots per node.
    pub fn slots_per_node(&self) -> u32 {
        self.cap
    }

    /// Free slots across the whole fleet.
    pub fn free_total(&self) -> u64 {
        self.idx.total()
    }

    /// Free slots on one node.
    pub fn node_free(&self, node: u32) -> u32 {
        self.idx.max_f[self.idx.size + node as usize]
    }

    /// The occupant of a slot, if any.
    pub fn occupant(&self, a: SlotAddr) -> Option<&JobTag> {
        self.occupant[a.node as usize * self.cap as usize + a.slot as usize].as_ref()
    }

    /// Marks a slot occupied.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied (a policy bug).
    pub fn occupy(&mut self, a: SlotAddr, tag: JobTag) {
        let cell = &mut self.occupant[a.node as usize * self.cap as usize + a.slot as usize];
        assert!(cell.is_none(), "slot {a:?} double-booked");
        *cell = Some(tag);
        let free = self.node_free(a.node) - 1;
        self.idx.set(a.node as usize, free);
    }

    /// Marks a slot free again.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free.
    pub fn vacate(&mut self, a: SlotAddr) {
        let cell = &mut self.occupant[a.node as usize * self.cap as usize + a.slot as usize];
        assert!(cell.is_some(), "slot {a:?} vacated twice");
        *cell = None;
        let free = self.node_free(a.node) + 1;
        self.idx.set(a.node as usize, free);
    }

    /// Leftmost fullest node that still has a free slot.
    pub fn most_packed_node(&self) -> Option<u32> {
        self.idx.most_packed().map(|n| n as u32)
    }

    /// Leftmost emptiest node with at least one free slot.
    pub fn least_packed_node(&self) -> Option<u32> {
        self.idx.least_packed().map(|n| n as u32)
    }

    /// Leftmost completely empty node.
    pub fn empty_node(&self) -> Option<u32> {
        self.idx.empty().map(|n| n as u32)
    }

    /// The global `k`-th free slot (0-based) — the uniform-over-free-
    /// slots primitive behind [`RandomPlacement`].
    pub fn kth_free(&self, k: u64) -> SlotAddr {
        let (node, mut rem) = self.idx.kth(k);
        for slot in 0..self.cap {
            if self.occupant[node * self.cap as usize + slot as usize].is_none() {
                if rem == 0 {
                    return SlotAddr {
                        node: node as u32,
                        slot,
                    };
                }
                rem -= 1;
            }
        }
        unreachable!("segment tree said node {node} had a {k}-th free slot");
    }

    /// Lowest free slot index on a node, if any.
    pub fn first_free_slot(&self, node: u32) -> Option<u32> {
        (0..self.cap)
            .find(|&s| self.occupant[node as usize * self.cap as usize + s as usize].is_none())
    }

    /// Link-adjacent slots of `slot` within any node.
    pub fn adjacent_slots(&self, slot: u32) -> &[u32] {
        &self.adj[slot as usize]
    }

    /// How many link-adjacent slots of `(node, slot)` are occupied by a
    /// *different* tenant — the cross-tenant coupling a channel-aware
    /// scheduler minimises (L2 sharing is per-GPU, so same-slot
    /// co-residency is impossible by construction; link adjacency is the
    /// remaining surface).
    pub fn cross_tenant_score(&self, node: u32, slot: u32, tenant: TenantId) -> u32 {
        let base = node as usize * self.cap as usize;
        self.adj[slot as usize]
            .iter()
            .filter(|&&n| {
                self.occupant[base + n as usize]
                    .as_ref()
                    .is_some_and(|t| t.tenant != tenant)
            })
            .count() as u32
    }

    /// The free slot on `node` with the fewest cross-tenant adjacent
    /// occupants (ties to the lowest slot), with its score.
    pub fn best_slot(&self, node: u32, tenant: TenantId) -> Option<(u32, u32)> {
        let base = node as usize * self.cap as usize;
        let mut best: Option<(u32, u32)> = None;
        for slot in 0..self.cap {
            if self.occupant[base + slot as usize].is_some() {
                continue;
            }
            let score = self.cross_tenant_score(node, slot, tenant);
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((slot, score));
            }
        }
        best
    }
}

/// A job→(node, GPU) assignment policy. `place` may keep internal state
/// (counters, affinity hints) but must be deterministic given the same
/// occupancy and job sequence, and must return `None` only when it
/// declines to place the job this epoch (the runner re-queues it).
pub trait PlacementPolicy: Send {
    /// Stable policy name for tables and artifacts.
    fn name(&self) -> &'static str;
    /// Chooses a free slot for `job`, or `None` to leave it queued.
    fn place(&mut self, occ: &Occupancy, job: &JobSpec) -> Option<SlotAddr>;
}

/// Bin-packing: fill the fullest node first (consolidation — what a
/// utilization-driven scheduler does, and the policy that maximises
/// cross-tenant co-residency).
#[derive(Debug, Default, Clone)]
pub struct Pack;

impl PlacementPolicy for Pack {
    fn name(&self) -> &'static str {
        "pack"
    }

    fn place(&mut self, occ: &Occupancy, _job: &JobSpec) -> Option<SlotAddr> {
        let node = occ.most_packed_node()?;
        let slot = occ.first_free_slot(node)?;
        Some(SlotAddr { node, slot })
    }
}

/// Load-balancing: place on the emptiest node.
#[derive(Debug, Default, Clone)]
pub struct Spread;

impl PlacementPolicy for Spread {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn place(&mut self, occ: &Occupancy, _job: &JobSpec) -> Option<SlotAddr> {
        let node = occ.least_packed_node()?;
        let slot = occ.first_free_slot(node)?;
        Some(SlotAddr { node, slot })
    }
}

/// Uniform over all free slots, from the policy's own counter-indexed
/// splitmix64 stream (no system RNG; bit-identical across thread
/// counts like everything else in the fleet).
#[derive(Debug, Clone)]
pub struct RandomPlacement {
    seed: u64,
    decisions: u64,
}

impl RandomPlacement {
    /// A random policy drawing from `seed`'s stream.
    pub fn new(seed: u64) -> Self {
        RandomPlacement { seed, decisions: 0 }
    }
}

impl PlacementPolicy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&mut self, occ: &Occupancy, _job: &JobSpec) -> Option<SlotAddr> {
        let total = occ.free_total();
        if total == 0 {
            return None;
        }
        let d = indexed_draw(self.seed, SALT_PLACEMENT, self.decisions);
        self.decisions += 1;
        Some(occ.kth_free(d % total))
    }
}

/// Channel-aware placement: avoid co-scheduling distinct tenants on
/// L2-sharing / link-adjacent GPUs.
///
/// Preference order: (1) the tenant's last node, if it still offers a
/// slot with zero cross-tenant adjacency (same-tenant consolidation —
/// a tenant cannot attack itself); (2) a completely empty node;
/// (3) the least-packed node's minimum-coupling slot. Every step is
/// O(log n) via the [`Occupancy`] index plus an O(slots) node-local
/// scan.
#[derive(Debug, Clone)]
pub struct ChannelAware {
    /// Per-tenant affinity hint: the node this tenant last landed on.
    hint: Vec<Option<u32>>,
}

impl ChannelAware {
    /// A channel-aware policy for a fleet serving `tenants` tenants.
    pub fn new(tenants: u32) -> Self {
        ChannelAware {
            hint: vec![None; tenants as usize],
        }
    }
}

impl PlacementPolicy for ChannelAware {
    fn name(&self) -> &'static str {
        "channel_aware"
    }

    fn place(&mut self, occ: &Occupancy, job: &JobSpec) -> Option<SlotAddr> {
        let t = job.tenant;
        // 1. Same-tenant affinity, but only conflict-free.
        if let Some(h) = self.hint[t.0 as usize] {
            if occ.node_free(h) > 0 {
                if let Some((slot, 0)) = occ.best_slot(h, t) {
                    return Some(SlotAddr { node: h, slot });
                }
            }
        }
        // 2. A fresh node isolates the tenant entirely.
        if let Some(node) = occ.empty_node() {
            self.hint[t.0 as usize] = Some(node);
            return Some(SlotAddr { node, slot: 0 });
        }
        // 3. Degrade gracefully: emptiest node, least-coupled slot.
        let node = occ.least_packed_node()?;
        let (slot, score) = occ.best_slot(node, t)?;
        if score == 0 {
            self.hint[t.0 as usize] = Some(node);
        }
        Some(SlotAddr { node, slot })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4() -> Topology {
        Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    fn job(tenant: u32) -> JobSpec {
        JobSpec {
            at: 0,
            tenant: TenantId(tenant),
            duration: 100,
        }
    }

    fn tag(tenant: u32) -> JobTag {
        JobTag {
            tenant: TenantId(tenant),
            start: 0,
            end: 100,
        }
    }

    #[test]
    fn index_extrema_and_kth() {
        let topo = ring4();
        let mut occ = Occupancy::new(5, &topo);
        assert_eq!(occ.free_total(), 20);
        assert_eq!(occ.most_packed_node(), Some(0), "all equal: leftmost");
        // Fill node 2 partially, node 4 fully.
        occ.occupy(SlotAddr { node: 2, slot: 1 }, tag(0));
        for s in 0..4 {
            occ.occupy(SlotAddr { node: 4, slot: s }, tag(1));
        }
        assert_eq!(occ.free_total(), 15);
        assert_eq!(occ.most_packed_node(), Some(2), "full nodes don't count");
        assert_eq!(occ.least_packed_node(), Some(0));
        assert_eq!(occ.empty_node(), Some(0));
        // k-th free slot skips occupied ones: node 2's free slots are
        // 0,2,3 → global ranks 8,9,10.
        assert_eq!(occ.kth_free(9), SlotAddr { node: 2, slot: 2 });
        occ.vacate(SlotAddr { node: 4, slot: 2 });
        assert_eq!(occ.node_free(4), 1);
        assert_eq!(occ.first_free_slot(4), Some(2));
    }

    #[test]
    fn pack_consolidates_spread_balances() {
        let topo = ring4();
        let mut occ = Occupancy::new(3, &topo);
        let mut pack = Pack;
        let mut spread = Spread;
        let a = pack.place(&occ, &job(0)).unwrap();
        occ.occupy(a, tag(0));
        let b = pack.place(&occ, &job(1)).unwrap();
        assert_eq!(b.node, a.node, "pack stays on the started node");
        occ.occupy(b, tag(1));
        let c = spread.place(&occ, &job(2)).unwrap();
        assert_ne!(c.node, a.node, "spread goes to an empty node");
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let topo = ring4();
        let mut occ = Occupancy::new(4, &topo);
        let mut r1 = RandomPlacement::new(9);
        let mut r2 = RandomPlacement::new(9);
        for i in 0..8 {
            let a = r1.place(&occ, &job(i)).unwrap();
            let b = r2.place(&occ, &job(i)).unwrap();
            assert_eq!(a, b, "same seed, same stream");
            assert!(occ.occupant(a).is_none());
            occ.occupy(a, tag(i));
        }
    }

    #[test]
    fn channel_aware_prefers_isolation() {
        let topo = ring4();
        let mut occ = Occupancy::new(2, &topo);
        let mut ca = ChannelAware::new(4);
        // Tenant 0 lands somewhere; tenant 1 must take the other node.
        let a = ca.place(&occ, &job(0)).unwrap();
        occ.occupy(a, tag(0));
        let b = ca.place(&occ, &job(1)).unwrap();
        occ.occupy(b, tag(1));
        assert_ne!(b.node, a.node, "fresh tenant gets the empty node");
        // Tenant 0 again: affinity to its own node, zero coupling slot.
        let c = ca.place(&occ, &job(0)).unwrap();
        assert_eq!(c.node, a.node);
        assert_eq!(occ.cross_tenant_score(c.node, c.slot, TenantId(0)), 0);
    }

    #[test]
    fn cross_tenant_score_counts_link_neighbours_only() {
        let topo = ring4();
        let mut occ = Occupancy::new(1, &topo);
        // Ring 0-1-2-3-0: slot 0's neighbours are 1 and 3.
        occ.occupy(SlotAddr { node: 0, slot: 1 }, tag(7));
        assert_eq!(occ.cross_tenant_score(0, 0, TenantId(0)), 1);
        assert_eq!(occ.cross_tenant_score(0, 2, TenantId(0)), 1);
        assert_eq!(occ.cross_tenant_score(0, 0, TenantId(7)), 0, "same tenant");
        occ.occupy(SlotAddr { node: 0, slot: 3 }, tag(8));
        assert_eq!(occ.cross_tenant_score(0, 0, TenantId(0)), 2);
        // best_slot picks the least coupled free slot: slot 2 touches
        // only slot-1(t7) and slot-3(t8) → score 2 too; all free slots
        // are 0 and 2 with score 2 → lowest index wins.
        assert_eq!(occ.best_slot(0, TenantId(0)), Some((0, 2)));
    }
}
