//! NVLink/PCIe interconnect topology: link objects, hop distances and
//! deterministic shortest-path routing.
//!
//! The DGX-1 connects its eight P100s in a *hybrid cube-mesh* (paper
//! Fig. 1): two fully connected quads `{0,1,2,3}` and `{4,5,6,7}`, plus one
//! NVLink between corresponding members of each quad (`i ↔ i+4`). Every
//! GPU additionally reaches every other GPU through PCIe via the host.
//!
//! # Links vs. hop distances
//!
//! A [`Topology`] exposes the interconnect at two altitudes:
//!
//! - **Hop distances** ([`Topology::nvlink_hops`], [`Topology::route`]):
//!   the all-pairs BFS distance over NVLink edges. This is what the
//!   latency model consumes — a remote access from `hops` away pays
//!   `hops × nvlink_hop` extra cycles regardless of *which* links it
//!   crosses. PR 1/PR 2 modelled the interconnect at this altitude only.
//! - **Link objects** ([`LinkId`], [`Topology::path`],
//!   [`Topology::link_between`]): every undirected NVLink edge is a
//!   first-class, identifiable resource. [`Topology::path`] resolves the
//!   concrete shortest link sequence a request traverses, which the
//!   [`crate::fabric::Fabric`] turns into a timed queueing model with
//!   per-link bandwidth and occupancy — the substrate of the paper's
//!   NVLink-congestion covert channel.
//!
//! # Routing policy
//!
//! Paths are precomputed once per topology and are **deterministic** and
//! **symmetric by construction**: for each unordered pair `{a, b}` one
//! canonical shortest path is computed from the lower-numbered endpoint
//! (greedy descent on the BFS distance field, breaking ties towards the
//! lowest-numbered neighbour), and the `b → a` direction reuses the same
//! link sequence reversed. Both directions of a transfer therefore
//! occupy exactly the same physical links, as on the real machine, and
//! routing never consults an RNG — simulations stay reproducible.
//!
//! GPU pairs with no NVLink path fall back to PCIe through the host root
//! complex ([`LinkKind::Pcie`]); whether processes may *map* memory across
//! such routes is a policy question owned by
//! [`crate::config::SystemConfig::allow_indirect_peer`].

use crate::address::GpuId;
use serde::{Deserialize, Serialize};

/// Kind of transport a route uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// Same-GPU access: no interconnect traversal at all.
    Local,
    /// NVLink connection (possibly multi-hop through peer GPUs).
    NvLink,
    /// PCIe through the host root complex.
    Pcie,
}

/// Identifier of one undirected NVLink edge of a [`Topology`] — an index
/// into its canonical edge list (see [`Topology::link_endpoints`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A resolved route between two GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Transport used.
    pub kind: LinkKind,
    /// Number of NVLink hops (0 for a local access, meaningless for PCIe).
    pub hops: u32,
}

impl Route {
    /// The trivial local route (same GPU): [`LinkKind::Local`], zero hops.
    pub fn local() -> Self {
        Route {
            kind: LinkKind::Local,
            hops: 0,
        }
    }
}

/// An undirected multi-GPU interconnect graph with precomputed routes.
///
/// Serialization covers only the defining data (node count + canonical
/// edge list); deserialization rebuilds every derived table through
/// [`Topology::from_edges`], so adjacency, distances and paths can never
/// be inconsistent with the edge list in a loaded config.
#[derive(Debug, Clone)]
pub struct Topology {
    n: u8,
    /// Adjacency matrix of direct NVLink edges.
    adj: Vec<Vec<bool>>,
    /// All-pairs NVLink hop distance (`u32::MAX` when unreachable).
    dist: Vec<Vec<u32>>,
    /// Canonical edge list `(a, b)` with `a < b`; defines [`LinkId`].
    edges: Vec<(u8, u8)>,
    /// `link_of[a][b]`: the link id of the direct edge `{a, b}`, if any.
    link_of: Vec<Vec<Option<u32>>>,
    /// Flattened canonical shortest paths, indexed through `path_span`.
    paths: Vec<LinkId>,
    /// Traversal direction per entry of `paths`: `true` when the hop
    /// crosses its link from the higher-numbered endpoint towards the
    /// lower (the *reverse* of the link's canonical `a → b` orientation).
    path_dirs: Vec<bool>,
    /// `(offset, len)` into `paths` for ordered pair `src * n + dst`.
    path_span: Vec<(u32, u32)>,
}

impl Serialize for Topology {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("edges".to_string(), self.edges.to_value()),
        ])
    }
}

impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let n = u8::from_value(v.field("n")?)?;
        let edges = Vec::<(u8, u8)>::from_value(v.field("edges")?)?;
        for &(a, b) in &edges {
            if a >= n || b >= n || a == b {
                return Err(serde::Error::msg(format!(
                    "invalid edge ({a},{b}) for a {n}-GPU topology"
                )));
            }
        }
        Ok(Topology::from_edges(n, &edges))
    }
}

impl Topology {
    /// Builds a topology from a node count and an undirected edge list.
    /// Duplicate edges (in either orientation) collapse to one link.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n` or is a self-loop.
    pub fn from_edges(n: u8, edges: &[(u8, u8)]) -> Self {
        let nn = n as usize;
        let mut adj = vec![vec![false; nn]; nn];
        let mut link_of = vec![vec![None; nn]; nn];
        let mut canonical = Vec::new();
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} GPUs");
            assert!(a != b, "edge ({a},{b}) is a self-loop");
            if adj[a as usize][b as usize] {
                continue; // duplicate
            }
            adj[a as usize][b as usize] = true;
            adj[b as usize][a as usize] = true;
            let id = canonical.len() as u32;
            canonical.push((a.min(b), a.max(b)));
            link_of[a as usize][b as usize] = Some(id);
            link_of[b as usize][a as usize] = Some(id);
        }
        let dist = Self::all_pairs(&adj);
        let (paths, path_dirs, path_span) = Self::all_paths(nn, &dist, &adj, &link_of);
        Topology {
            n,
            adj,
            dist,
            edges: canonical,
            link_of,
            paths,
            path_dirs,
            path_span,
        }
    }

    /// The DGX-1 hybrid cube-mesh over 8 GPUs (paper Fig. 1).
    pub fn dgx1() -> Self {
        let mut edges = Vec::new();
        // Two fully connected quads.
        for base in [0u8, 4u8] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        // Cross links between the quads.
        for i in 0..4u8 {
            edges.push((i, i + 4));
        }
        Topology::from_edges(8, &edges)
    }

    /// A fully connected NVLink clique over `n` GPUs (useful for tests and
    /// for modelling NVSwitch-style boxes).
    pub fn fully_connected(n: u8) -> Self {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Topology::from_edges(n, &edges)
    }

    fn all_pairs(adj: &[Vec<bool>]) -> Vec<Vec<u32>> {
        let n = adj.len();
        let mut dist = vec![vec![u32::MAX; n]; n];
        for (s, row) in dist.iter_mut().enumerate() {
            // BFS from s.
            row[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for v in 0..n {
                    if adj[u][v] && row[v] == u32::MAX {
                        row[v] = row[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        dist
    }

    /// Precomputes one canonical shortest link path per ordered pair.
    ///
    /// For `a < b` the path descends greedily on the distance-to-`b`
    /// field (lowest-numbered neighbour wins ties); the `b → a` entry is
    /// the same link sequence reversed, so routing is symmetric.
    fn all_paths(
        n: usize,
        dist: &[Vec<u32>],
        adj: &[Vec<bool>],
        link_of: &[Vec<Option<u32>>],
    ) -> (Vec<LinkId>, Vec<bool>, Vec<(u32, u32)>) {
        let mut paths = Vec::new();
        let mut dirs = Vec::new();
        let mut span = vec![(0u32, 0u32); n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                if dist[a][b] == u32::MAX {
                    continue; // unreachable: PCIe, no link path
                }
                let start = paths.len() as u32;
                let mut u = a;
                while u != b {
                    let next = (0..n)
                        .find(|&v| adj[u][v] && dist[v][b] == dist[u][b] - 1)
                        .expect("BFS distance field must admit a descent step");
                    paths.push(LinkId(link_of[u][next].expect("adjacent nodes share a link")));
                    dirs.push(u > next);
                    u = next;
                }
                let len = paths.len() as u32 - start;
                span[a * n + b] = (start, len);
                // Reverse direction: same links, reversed order, each hop
                // crossed the opposite way.
                let rstart = paths.len() as u32;
                for k in (0..len).rev() {
                    paths.push(paths[(start + k) as usize]);
                    dirs.push(!dirs[(start + k) as usize]);
                }
                span[b * n + a] = (rstart, len);
            }
        }
        (paths, dirs, span)
    }

    /// Number of GPUs in the topology.
    pub fn num_gpus(&self) -> u8 {
        self.n
    }

    /// Number of NVLink edges (valid [`LinkId`]s are `0..num_links`).
    pub fn num_links(&self) -> usize {
        self.edges.len()
    }

    /// The two GPUs a link connects (lower id first), if the link exists.
    pub fn link_endpoints(&self, l: LinkId) -> Option<(GpuId, GpuId)> {
        self.edges
            .get(l.index())
            .map(|&(a, b)| (GpuId::new(a), GpuId::new(b)))
    }

    /// The link directly connecting `a` and `b`, if any.
    pub fn link_between(&self, a: GpuId, b: GpuId) -> Option<LinkId> {
        self.link_of[a.index()][b.index()].map(LinkId)
    }

    /// Whether `a` and `b` share a direct NVLink.
    pub fn direct_nvlink(&self, a: GpuId, b: GpuId) -> bool {
        a != b && self.adj[a.index()][b.index()]
    }

    /// NVLink hop distance between two GPUs, if reachable over NVLink.
    pub fn nvlink_hops(&self, a: GpuId, b: GpuId) -> Option<u32> {
        let d = self.dist[a.index()][b.index()];
        (d != u32::MAX).then_some(d)
    }

    /// The canonical shortest link sequence from `src` to `dst`: empty for
    /// local accesses and for pairs with no NVLink path (PCIe fallback).
    /// `path(a, b)` is always `path(b, a)` reversed, and its length equals
    /// [`Topology::nvlink_hops`].
    pub fn path(&self, src: GpuId, dst: GpuId) -> &[LinkId] {
        let (off, len) = self.path_span[src.index() * self.n as usize + dst.index()];
        &self.paths[off as usize..(off + len) as usize]
    }

    /// Per-hop traversal directions aligned with [`Topology::path`]:
    /// `false` when hop `i` crosses its link in the canonical `a → b`
    /// orientation (lower endpoint towards higher), `true` for the
    /// opposite way. `path_dirs(a, b)` is `path_dirs(b, a)` reversed and
    /// negated, since the return route crosses the same links backwards.
    pub fn path_dirs(&self, src: GpuId, dst: GpuId) -> &[bool] {
        let (off, len) = self.path_span[src.index() * self.n as usize + dst.index()];
        &self.path_dirs[off as usize..(off + len) as usize]
    }

    /// Resolves the route used for an access from `src` to memory homed on
    /// `dst`: local on the same GPU, NVLink if reachable, PCIe otherwise.
    pub fn route(&self, src: GpuId, dst: GpuId) -> Route {
        if src == dst {
            return Route::local();
        }
        match self.nvlink_hops(src, dst) {
            Some(h) => Route {
                kind: LinkKind::NvLink,
                hops: h,
            },
            None => Route {
                kind: LinkKind::Pcie,
                hops: 0,
            },
        }
    }

    /// The valiant intermediate for the `counter`-th line of ordered
    /// pair `(src, dst)` under `seed`: a GPU `w ∉ {src, dst}` with
    /// NVLink paths `src → w` and `w → dst`, chosen deterministically
    /// from the splitmix64 stream indexed by `(seed, src, dst,
    /// counter)`. Returns `None` when the pair is local, has no NVLink
    /// route, or the graph admits no intermediate (e.g. 2-GPU boxes) —
    /// the caller then falls back to the canonical path.
    ///
    /// This is the routing half of the valiant/MIN defence
    /// ([`crate::qos::RoutingPolicy::Valiant`]): the full detour is the
    /// concatenation [`Topology::path`]`(src, w)` ‖
    /// [`Topology::path`]`(w, dst)`, so every hop is still a real link
    /// walk — property-tested in `tests/proptests.rs`.
    pub fn valiant_intermediate(
        &self,
        src: GpuId,
        dst: GpuId,
        seed: u64,
        counter: u64,
    ) -> Option<GpuId> {
        if src == dst || self.nvlink_hops(src, dst).is_none() {
            return None;
        }
        let valid = |w: u8| {
            let g = GpuId::new(w);
            g != src
                && g != dst
                && self.nvlink_hops(src, g).is_some()
                && self.nvlink_hops(g, dst).is_some()
        };
        let count = (0..self.n).filter(|&w| valid(w)).count() as u64;
        if count == 0 {
            return None;
        }
        let pair = (src.index() * self.n as usize + dst.index()) as u64;
        let h = crate::draw::splitmix64(
            seed ^ pair.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let k = h % count;
        (0..self.n).filter(|&w| valid(w)).nth(k as usize).map(GpuId::new)
    }

    /// Recomputes routing over the surviving graph after removing
    /// `failed` links: the returned topology keeps the original
    /// canonical edge list (so [`LinkId`] numbering — and everything
    /// indexed by it, fabric occupancy windows and per-link stats —
    /// stays stable) but drops the failed links from adjacency,
    /// distances and precomputed paths. GPU pairs the failures
    /// partition end up with [`Topology::nvlink_hops`] `== None`, an
    /// empty [`Topology::path`] and a [`LinkKind::Pcie`] route, exactly
    /// like natively unreachable pairs. Out-of-range ids in `failed`
    /// are ignored. Used by [`crate::fault`] to build one routing table
    /// per fault epoch.
    #[must_use]
    pub fn excluding_links(&self, failed: &[LinkId]) -> Topology {
        let mut adj = self.adj.clone();
        let mut link_of = self.link_of.clone();
        for &l in failed {
            if let Some(&(a, b)) = self.edges.get(l.index()) {
                adj[a as usize][b as usize] = false;
                adj[b as usize][a as usize] = false;
                link_of[a as usize][b as usize] = None;
                link_of[b as usize][a as usize] = None;
            }
        }
        let dist = Self::all_pairs(&adj);
        let (paths, path_dirs, path_span) = Self::all_paths(self.n as usize, &dist, &adj, &link_of);
        Topology {
            n: self.n,
            adj,
            dist,
            edges: self.edges.clone(),
            link_of,
            paths,
            path_dirs,
            path_span,
        }
    }

    /// Iterates over the direct NVLink peers of `g`.
    pub fn peers(&self, g: GpuId) -> impl Iterator<Item = GpuId> + '_ {
        let gi = g.index();
        (0..self.n)
            .filter(move |&j| self.adj[gi][j as usize])
            .map(GpuId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx1_every_gpu_has_four_links() {
        let t = Topology::dgx1();
        for g in 0..8u8 {
            let deg = t.peers(GpuId::new(g)).count();
            assert_eq!(deg, 4, "GPU{g} should have 4 NVLinks");
        }
    }

    #[test]
    fn dgx1_has_sixteen_links() {
        // 2 quads × 6 intra-quad edges + 4 cross edges.
        let t = Topology::dgx1();
        assert_eq!(t.num_links(), 16);
        for l in 0..16u32 {
            let (a, b) = t.link_endpoints(LinkId(l)).unwrap();
            assert!(a < b, "endpoints are canonical (lower id first)");
            assert_eq!(t.link_between(a, b), Some(LinkId(l)));
            assert_eq!(t.link_between(b, a), Some(LinkId(l)));
        }
        assert!(t.link_endpoints(LinkId(16)).is_none());
    }

    #[test]
    fn dgx1_intra_quad_is_one_hop() {
        let t = Topology::dgx1();
        assert_eq!(t.nvlink_hops(GpuId::new(0), GpuId::new(3)), Some(1));
        assert_eq!(t.nvlink_hops(GpuId::new(5), GpuId::new(7)), Some(1));
    }

    #[test]
    fn dgx1_cross_quad_corresponding_is_one_hop() {
        let t = Topology::dgx1();
        for i in 0..4u8 {
            assert_eq!(t.nvlink_hops(GpuId::new(i), GpuId::new(i + 4)), Some(1));
        }
    }

    #[test]
    fn dgx1_cross_quad_non_corresponding_is_two_hops() {
        let t = Topology::dgx1();
        // 0 and 5 are in different quads and not corresponding: 0-1-5 or 0-4-5.
        assert_eq!(t.nvlink_hops(GpuId::new(0), GpuId::new(5)), Some(2));
        assert!(!t.direct_nvlink(GpuId::new(0), GpuId::new(5)));
    }

    #[test]
    fn local_route_is_zero_hops_and_not_nvlink() {
        let t = Topology::dgx1();
        let r = t.route(GpuId::new(2), GpuId::new(2));
        assert_eq!(r, Route::local());
        assert_eq!(r.kind, LinkKind::Local);
        assert!(t.path(GpuId::new(2), GpuId::new(2)).is_empty());
    }

    #[test]
    fn paths_are_shortest_and_symmetric() {
        let t = Topology::dgx1();
        for a in 0..8u8 {
            for b in 0..8u8 {
                let (ga, gb) = (GpuId::new(a), GpuId::new(b));
                let p = t.path(ga, gb);
                if a == b {
                    assert!(p.is_empty());
                    continue;
                }
                assert_eq!(p.len() as u32, t.nvlink_hops(ga, gb).unwrap());
                let mut rev: Vec<LinkId> = t.path(gb, ga).to_vec();
                rev.reverse();
                assert_eq!(p, &rev[..], "path({a},{b}) must mirror path({b},{a})");
            }
        }
    }

    #[test]
    fn path_dirs_mirror_the_walk() {
        let t = Topology::dgx1();
        for a in 0..8u8 {
            for b in 0..8u8 {
                let (ga, gb) = (GpuId::new(a), GpuId::new(b));
                let p = t.path(ga, gb);
                let d = t.path_dirs(ga, gb);
                assert_eq!(p.len(), d.len());
                // Walking the path with the direction bits lands on b.
                let mut u = ga;
                for (l, &rev) in p.iter().zip(d) {
                    let (lo, hi) = t.link_endpoints(*l).unwrap();
                    let (from, to) = if rev { (hi, lo) } else { (lo, hi) };
                    assert_eq!(u, from, "hop must leave the current GPU");
                    u = to;
                }
                if !p.is_empty() {
                    assert_eq!(u, gb, "path({a},{b}) must arrive at {b}");
                }
                // Reverse route: same links backwards, directions negated.
                let rd: Vec<bool> = t.path_dirs(gb, ga).iter().map(|&x| !x).rev().collect();
                assert_eq!(d, &rd[..]);
            }
        }
    }

    #[test]
    fn dgx1_two_hop_path_goes_through_lowest_peer() {
        // Canonical path for {0, 5}: greedy from 0 picks GPU1 (lowest
        // neighbour one hop from 5), so the links are (0,1) then (1,5).
        let t = Topology::dgx1();
        let p = t.path(GpuId::new(0), GpuId::new(5));
        assert_eq!(p.len(), 2);
        assert_eq!(
            t.link_endpoints(p[0]).unwrap(),
            (GpuId::new(0), GpuId::new(1))
        );
        assert_eq!(
            t.link_endpoints(p[1]).unwrap(),
            (GpuId::new(1), GpuId::new(5))
        );
    }

    #[test]
    fn disconnected_gpus_fall_back_to_pcie() {
        // Two GPUs, no NVLink edges at all.
        let t = Topology::from_edges(2, &[]);
        let r = t.route(GpuId::new(0), GpuId::new(1));
        assert_eq!(r.kind, LinkKind::Pcie);
        assert_eq!(t.nvlink_hops(GpuId::new(0), GpuId::new(1)), None);
        assert!(t.path(GpuId::new(0), GpuId::new(1)).is_empty());
        assert_eq!(t.num_links(), 0);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        let _ = Topology::from_edges(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = Topology::from_edges(2, &[(1, 1)]);
    }

    #[test]
    fn serde_round_trip_rebuilds_derived_tables() {
        let t = Topology::dgx1();
        let back = Topology::from_value(&t.to_value()).unwrap();
        assert_eq!(back.num_links(), t.num_links());
        for a in 0..8u8 {
            for b in 0..8u8 {
                let (ga, gb) = (GpuId::new(a), GpuId::new(b));
                assert_eq!(back.path(ga, gb), t.path(ga, gb));
                assert_eq!(back.nvlink_hops(ga, gb), t.nvlink_hops(ga, gb));
            }
        }
    }

    #[test]
    fn deserialize_rejects_invalid_edges() {
        let v = serde::Value::Object(vec![
            ("n".to_string(), 2u8.to_value()),
            ("edges".to_string(), vec![(0u8, 5u8)].to_value()),
        ]);
        assert!(Topology::from_value(&v).is_err());
        let v = serde::Value::Object(vec![
            ("n".to_string(), 2u8.to_value()),
            ("edges".to_string(), vec![(1u8, 1u8)].to_value()),
        ]);
        assert!(Topology::from_value(&v).is_err(), "self-loop rejected");
    }

    #[test]
    fn valiant_intermediate_is_valid_and_deterministic() {
        let t = Topology::dgx1();
        for a in 0..8u8 {
            for b in 0..8u8 {
                let (ga, gb) = (GpuId::new(a), GpuId::new(b));
                for counter in 0..8u64 {
                    let w = t.valiant_intermediate(ga, gb, 42, counter);
                    if a == b {
                        assert_eq!(w, None, "local pairs never detour");
                        continue;
                    }
                    let w = w.expect("DGX-1 always admits an intermediate");
                    assert_ne!(w, ga);
                    assert_ne!(w, gb);
                    assert!(t.nvlink_hops(ga, w).is_some());
                    assert!(t.nvlink_hops(w, gb).is_some());
                    assert_eq!(
                        t.valiant_intermediate(ga, gb, 42, counter),
                        Some(w),
                        "same (seed, pair, counter) must pick the same GPU"
                    );
                }
            }
        }
    }

    #[test]
    fn valiant_intermediate_spreads_over_candidates() {
        let t = Topology::dgx1();
        let picks: std::collections::HashSet<_> = (0..64)
            .filter_map(|c| t.valiant_intermediate(GpuId::new(0), GpuId::new(5), 1, c))
            .collect();
        // {0,5} admits 6 candidates; 64 draws should hit most of them.
        assert!(picks.len() >= 4, "stream must spread the load: {picks:?}");
    }

    #[test]
    fn valiant_intermediate_none_without_candidates() {
        // Two GPUs, one link: no third GPU to detour through.
        let t = Topology::from_edges(2, &[(0, 1)]);
        assert_eq!(t.valiant_intermediate(GpuId::new(0), GpuId::new(1), 9, 0), None);
        // Disconnected pair: no NVLink route at all.
        let t = Topology::from_edges(3, &[(0, 1)]);
        assert_eq!(t.valiant_intermediate(GpuId::new(0), GpuId::new(2), 9, 0), None);
        // A 0-1-2 line: GPU1 is the only possible intermediate for {0,2}.
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        for c in 0..8 {
            assert_eq!(
                t.valiant_intermediate(GpuId::new(0), GpuId::new(2), 9, c),
                Some(GpuId::new(1))
            );
        }
    }

    #[test]
    fn excluding_links_reroutes_and_keeps_link_numbering() {
        let t = Topology::dgx1();
        // Fail both links of the canonical 0-1-5 path: (0,1) and (1,5).
        let l01 = t.link_between(GpuId::new(0), GpuId::new(1)).unwrap();
        let l15 = t.link_between(GpuId::new(1), GpuId::new(5)).unwrap();
        let s = t.excluding_links(&[l01, l15]);
        // Link ids and endpoints are unchanged — only routing moved.
        assert_eq!(s.num_links(), t.num_links());
        for l in 0..16u32 {
            assert_eq!(s.link_endpoints(LinkId(l)), t.link_endpoints(LinkId(l)));
        }
        assert_eq!(s.link_between(GpuId::new(0), GpuId::new(1)), None);
        assert!(!s.direct_nvlink(GpuId::new(0), GpuId::new(1)));
        // {0,5} still routes in 2 hops, now avoiding the failed links.
        assert_eq!(s.nvlink_hops(GpuId::new(0), GpuId::new(5)), Some(2));
        let p = s.path(GpuId::new(0), GpuId::new(5));
        assert_eq!(p.len(), 2);
        assert!(!p.contains(&l01) && !p.contains(&l15));
        // {0,1} reroutes around its dead direct link.
        assert_eq!(s.nvlink_hops(GpuId::new(0), GpuId::new(1)), Some(2));
        // The original topology is untouched.
        assert_eq!(t.nvlink_hops(GpuId::new(0), GpuId::new(1)), Some(1));
    }

    #[test]
    fn excluding_links_partitions_to_pcie() {
        // A 0-1-2 line: failing (0,1) cuts GPU0 off.
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let s = t.excluding_links(&[LinkId(0)]);
        assert_eq!(s.nvlink_hops(GpuId::new(0), GpuId::new(1)), None);
        assert_eq!(s.nvlink_hops(GpuId::new(0), GpuId::new(2)), None);
        assert!(s.path(GpuId::new(0), GpuId::new(2)).is_empty());
        assert_eq!(s.route(GpuId::new(0), GpuId::new(2)).kind, LinkKind::Pcie);
        // The surviving half still routes over NVLink.
        assert_eq!(s.nvlink_hops(GpuId::new(1), GpuId::new(2)), Some(1));
        assert_eq!(s.path(GpuId::new(1), GpuId::new(2)), &[LinkId(1)]);
        // Out-of-range failures are ignored.
        let u = t.excluding_links(&[LinkId(99)]);
        assert_eq!(u.path(GpuId::new(0), GpuId::new(2)), t.path(GpuId::new(0), GpuId::new(2)));
    }

    #[test]
    fn fully_connected_is_all_one_hop() {
        let t = Topology::fully_connected(4);
        for i in 0..4u8 {
            for j in 0..4u8 {
                if i != j {
                    assert_eq!(t.nvlink_hops(GpuId::new(i), GpuId::new(j)), Some(1));
                }
            }
        }
    }
}
