//! EHP interconnect topologies.
//!
//! The EHP's chiplets sit on active interposers that provide the
//! network-on-chip (Section II-A.3). A message between chiplets descends
//! through TSVs into the interposer, crosses one or more interposer
//! routers, and ascends through TSVs at the destination — two extra
//! vertical hops compared to a monolithic die (Section V-A).
//!
//! [`Topology::ehp`] builds the paper's package: four GPU clusters of two
//! GPU chiplets (each with its DRAM stack above), two central CPU clusters
//! of four CPU chiplets, and a chain of interposer routers joining the
//! clusters. [`Topology::monolithic`] builds the hypothetical single-die
//! baseline used by Fig. 7, where all endpoints meet at one crossbar.

use std::collections::VecDeque;
use std::num::NonZeroU32;

use ena_model::error::DegradeError;

/// What a network endpoint or switch represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// GPU chiplet `index` (0..8 on the EHP).
    GpuChiplet(u32),
    /// CPU chiplet `index` (0..8 on the EHP).
    CpuChiplet(u32),
    /// 3D DRAM stack `index` (0..8, one atop each GPU chiplet).
    HbmStack(u32),
    /// An interposer router (cluster `index`).
    InterposerRouter(u32),
    /// The single crossbar of the monolithic baseline.
    Crossbar,
    /// External-memory interface `index` on the package edge.
    ExternalInterface(u32),
}

impl NodeKind {
    /// True if this node generates or sinks traffic (not a pure switch).
    pub fn is_endpoint(&self) -> bool {
        !matches!(self, NodeKind::InterposerRouter(_) | NodeKind::Crossbar)
    }

    /// The chiplet this endpoint physically lives on, if any. DRAM stacks
    /// sit directly atop their GPU chiplet, so traffic between the two
    /// never leaves the chiplet footprint.
    pub fn chiplet_site(&self) -> Option<u32> {
        match *self {
            NodeKind::GpuChiplet(i) | NodeKind::HbmStack(i) => Some(i),
            NodeKind::CpuChiplet(i) => Some(100 + i),
            _ => None,
        }
    }
}

/// Index of a node within a [`Topology`].
pub type NodeId = usize;

/// A unidirectional link between two nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Traversal latency in cycles (wire + TSV).
    pub latency_cycles: u32,
    /// Serialization width in whole bytes per cycle: a packet of `b`
    /// bytes holds the link for `⌈b / width⌉` cycles. It is nonzero, as
    /// a link that carries nothing per cycle would hold a packet forever.
    pub bytes_per_cycle: NonZeroU32,
    /// Physical length in millimeters (for energy accounting).
    pub length_mm: f64,
    /// Whether this link is a vertical TSV hop.
    pub is_tsv: bool,
}

/// An interconnect graph.
///
/// Supports graceful degradation: nodes and links can be failed in place
/// ([`Topology::fail_node`], [`Topology::fail_link_between`]); routing then
/// works around the casualties, and severed destinations surface as
/// [`DegradeError::Unreachable`] values rather than panics.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    /// Outgoing link indices per node.
    adjacency: Vec<Vec<usize>>,
    /// Per-link liveness (indexed like `links`); failed links stay in the
    /// vector so link-indexed statistics remain stable.
    link_active: Vec<bool>,
    /// Per-node liveness; failed nodes stay in the vector so ids remain
    /// stable.
    node_failed: Vec<bool>,
}

/// Link parameter bundle used while building topologies.
#[derive(Clone, Copy, Debug)]
struct LinkParams {
    latency_cycles: u32,
    bytes_per_cycle: NonZeroU32,
    length_mm: f64,
    is_tsv: bool,
}

/// Every link's width: 64 bytes per cycle.
const LINK_WIDTH: NonZeroU32 = NonZeroU32::MIN.saturating_add(63);

const TSV: LinkParams = LinkParams {
    latency_cycles: 1,
    bytes_per_cycle: LINK_WIDTH,
    length_mm: 0.1,
    is_tsv: true,
};

const INTERPOSER_HOP: LinkParams = LinkParams {
    latency_cycles: 4,
    bytes_per_cycle: LINK_WIDTH,
    length_mm: 8.0,
    is_tsv: false,
};

const CROSSBAR_HOP: LinkParams = LinkParams {
    latency_cycles: 2,
    bytes_per_cycle: LINK_WIDTH,
    length_mm: 4.0,
    is_tsv: false,
};

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range. Use [`Topology::try_kind`] for
    /// untrusted ids.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id]
    }

    /// Kind of node `id`, as a value for untrusted ids.
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::UnknownNode`] if `id` is out of range.
    pub fn try_kind(&self, id: NodeId) -> Result<NodeKind, DegradeError> {
        self.nodes
            .get(id)
            .copied()
            .ok_or(DegradeError::UnknownNode(id))
    }

    /// All links (failed links included, so link indices stay stable; see
    /// [`Topology::link_is_active`]).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Finds the node of the given kind (failed nodes included — ids are
    /// permanent).
    pub fn find(&self, kind: NodeKind) -> Option<NodeId> {
        self.nodes.iter().position(|&k| k == kind)
    }

    /// Node ids of all *live* endpoints of a given predicate; failed
    /// endpoints are excluded.
    pub fn endpoints(&self, pred: impl Fn(NodeKind) -> bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|&(i, &k)| k.is_endpoint() && !self.node_failed[i] && pred(k))
            .map(|(i, _)| i)
            .collect()
    }

    /// True if node `id` has been failed.
    pub fn is_failed(&self, id: NodeId) -> bool {
        self.node_failed.get(id).copied().unwrap_or(false)
    }

    /// True if link `li` is still carrying traffic.
    pub fn link_is_active(&self, li: usize) -> bool {
        self.link_active.get(li).copied().unwrap_or(false)
    }

    /// Fails node `id`: the node is marked dead and every incident link is
    /// deactivated. Routing thereafter treats it as nonexistent.
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::UnknownNode`] if `id` is out of range or the
    /// node already failed.
    pub fn fail_node(&mut self, id: NodeId) -> Result<(), DegradeError> {
        if id >= self.nodes.len() || self.node_failed[id] {
            return Err(DegradeError::UnknownNode(id));
        }
        self.node_failed[id] = true;
        for (li, link) in self.links.iter().enumerate() {
            if link.from == id || link.to == id {
                self.link_active[li] = false;
            }
        }
        Ok(())
    }

    /// Fails the node of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::UnknownComponent`] if no live node of that
    /// kind exists.
    pub fn fail_kind(&mut self, kind: NodeKind) -> Result<NodeId, DegradeError> {
        let id = self.find(kind).filter(|&id| !self.node_failed[id]).ok_or(
            DegradeError::UnknownComponent {
                component: "topology node",
                index: self.find(kind).map(|id| id as u64).unwrap_or(u64::MAX),
            },
        )?;
        self.fail_node(id)?;
        Ok(id)
    }

    /// Fails every link between nodes `a` and `b` (both directions).
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::UnknownNode`] for out-of-range ids, or
    /// [`DegradeError::UnknownComponent`] if no active link joins the pair.
    pub fn fail_link_between(&mut self, a: NodeId, b: NodeId) -> Result<usize, DegradeError> {
        if a >= self.nodes.len() {
            return Err(DegradeError::UnknownNode(a));
        }
        if b >= self.nodes.len() {
            return Err(DegradeError::UnknownNode(b));
        }
        let mut cut = 0;
        for (li, link) in self.links.iter().enumerate() {
            let joins = (link.from == a && link.to == b) || (link.from == b && link.to == a);
            if joins && self.link_active[li] {
                self.link_active[li] = false;
                cut += 1;
            }
        }
        if cut == 0 {
            return Err(DegradeError::UnknownComponent {
                component: "interposer link",
                index: a as u64,
            });
        }
        Ok(cut)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(kind);
        self.adjacency.push(Vec::new());
        self.node_failed.push(false);
        self.nodes.len() - 1
    }

    fn add_duplex(&mut self, a: NodeId, b: NodeId, p: LinkParams) {
        for (from, to) in [(a, b), (b, a)] {
            let link = Link {
                from,
                to,
                latency_cycles: p.latency_cycles,
                bytes_per_cycle: p.bytes_per_cycle,
                length_mm: p.length_mm,
                is_tsv: p.is_tsv,
            };
            self.adjacency[from].push(self.links.len());
            self.links.push(link);
            self.link_active.push(true);
        }
    }

    /// Builds the proposed chiplet EHP package.
    ///
    /// `gpu_chiplets` must be even (two per GPU cluster) and match the
    /// number of HBM stacks; the paper uses 8.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_chiplets` is zero or odd.
    pub fn ehp(gpu_chiplets: u32, cpu_chiplets: u32) -> Self {
        assert!(
            gpu_chiplets > 0 && gpu_chiplets.is_multiple_of(2),
            "GPU chiplets come in pairs"
        );
        let mut t = Topology::default();

        let gpu_clusters = gpu_chiplets / 2;
        let cpu_clusters = 2u32;
        let total_routers = gpu_clusters + cpu_clusters;

        // Interposer routers in package order: half the GPU clusters, the
        // two CPU clusters in the middle, the other half of the GPU
        // clusters (Fig. 2's G G | C C | G G floorplan).
        let mut router_ids = Vec::new();
        for c in 0..total_routers {
            router_ids.push(t.add_node(NodeKind::InterposerRouter(c)));
        }
        for (&a, &b) in router_ids.iter().zip(router_ids.iter().skip(1)) {
            t.add_duplex(a, b, INTERPOSER_HOP);
        }

        // Order clusters: G.. C C G..
        let mut cluster_role = Vec::new();
        for c in 0..gpu_clusters / 2 {
            cluster_role.push(("gpu", c));
        }
        cluster_role.push(("cpu", 0));
        cluster_role.push(("cpu", 1));
        for c in gpu_clusters / 2..gpu_clusters {
            cluster_role.push(("gpu", c));
        }

        let mut next_cpu = 0u32;
        for (slot, &(role, idx)) in cluster_role.iter().enumerate() {
            let router = router_ids[slot];
            match role {
                "gpu" => {
                    for g in [idx * 2, idx * 2 + 1] {
                        let gpu = t.add_node(NodeKind::GpuChiplet(g));
                        t.add_duplex(gpu, router, TSV);
                        // The DRAM stack sits directly on the GPU chiplet.
                        let hbm = t.add_node(NodeKind::HbmStack(g));
                        t.add_duplex(hbm, gpu, TSV);
                        // External interface adjacent to each GPU cluster edge.
                        let ext = t.add_node(NodeKind::ExternalInterface(g));
                        t.add_duplex(ext, router, TSV);
                    }
                }
                _ => {
                    for _ in 0..cpu_chiplets / 2 {
                        let cpu = t.add_node(NodeKind::CpuChiplet(next_cpu));
                        next_cpu += 1;
                        t.add_duplex(cpu, router, TSV);
                    }
                }
            }
        }
        t
    }

    /// Builds the chiplet EHP with the interposer routers closed into a
    /// ring instead of a chain — an ablation on the interposer
    /// interconnect: the ring halves the worst-case hop count between the
    /// edge GPU clusters for one extra link.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_chiplets` is zero or odd.
    pub fn ehp_ring(gpu_chiplets: u32, cpu_chiplets: u32) -> Self {
        let mut t = Self::ehp(gpu_chiplets, cpu_chiplets);
        // Close the router chain into a ring.
        let routers: Vec<NodeId> = (0..t.nodes.len())
            .filter(|&i| matches!(t.nodes[i], NodeKind::InterposerRouter(_)))
            .collect();
        if let (Some(&first), Some(&last)) = (routers.first(), routers.last()) {
            if routers.len() > 2 {
                t.add_duplex(first, last, INTERPOSER_HOP);
            }
        }
        t
    }

    /// Builds the hypothetical monolithic baseline: every endpoint meets at
    /// a single crossbar with no TSV hops.
    pub fn monolithic(gpu_chiplets: u32, cpu_chiplets: u32) -> Self {
        let mut t = Topology::default();
        let xbar = t.add_node(NodeKind::Crossbar);
        for g in 0..gpu_chiplets {
            let gpu = t.add_node(NodeKind::GpuChiplet(g));
            t.add_duplex(gpu, xbar, CROSSBAR_HOP);
            let hbm = t.add_node(NodeKind::HbmStack(g));
            t.add_duplex(hbm, gpu, TSV);
            let ext = t.add_node(NodeKind::ExternalInterface(g));
            t.add_duplex(ext, xbar, CROSSBAR_HOP);
        }
        for c in 0..cpu_chiplets {
            let cpu = t.add_node(NodeKind::CpuChiplet(c));
            t.add_duplex(cpu, xbar, CROSSBAR_HOP);
        }
        t
    }

    /// Shortest routes (by accumulated latency) from `src` to every node,
    /// as a predecessor-link table.
    fn shortest_from(&self, src: NodeId) -> Vec<Option<usize>> {
        // Uniform-ish weights: BFS layered by latency via a simple Dijkstra
        // on small graphs.
        let mut dist = vec![u64::MAX; self.nodes.len()];
        let mut pred: Vec<Option<usize>> = vec![None; self.nodes.len()];
        dist[src] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            for &li in &self.adjacency[n] {
                if !self.link_active[li] {
                    continue;
                }
                let link = self.links[li];
                if self.node_failed[link.to] {
                    continue;
                }
                let nd = dist[n] + u64::from(link.latency_cycles);
                if nd < dist[link.to] {
                    dist[link.to] = nd;
                    pred[link.to] = Some(li);
                    queue.push_back(link.to);
                }
            }
        }
        pred
    }

    /// Appends to `path` the links of the route from `src` to `dst` that
    /// `pred` (from [`Topology::shortest_from`] at `src`) describes, in
    /// travel order. Returns false, leaving `path` as it was, if `dst` is
    /// unreachable.
    fn push_route(
        &self,
        pred: &[Option<usize>],
        src: NodeId,
        dst: NodeId,
        path: &mut Vec<usize>,
    ) -> bool {
        let start = path.len();
        let mut cur = dst;
        while cur != src {
            let Some(li) = pred[cur] else {
                path.truncate(start);
                return false;
            };
            path.push(li);
            cur = self.links[li].from;
        }
        path[start..].reverse();
        true
    }

    /// Computes the link sequence of the route from `src` to `dst`,
    /// working around failed links and nodes.
    ///
    /// # Errors
    ///
    /// Returns [`DegradeError::UnknownNode`] for out-of-range or failed
    /// endpoints, and [`DegradeError::Unreachable`] when degradation has
    /// severed every path — an error value, never a panic.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Result<Vec<usize>, DegradeError> {
        for id in [src, dst] {
            if id >= self.nodes.len() || self.node_failed[id] {
                return Err(DegradeError::UnknownNode(id));
            }
        }
        let mut path = Vec::new();
        if src != dst && !self.push_route(&self.shortest_from(src), src, dst, &mut path) {
            return Err(DegradeError::Unreachable { src, dst });
        }
        Ok(path)
    }

    /// Precomputes routes between all live endpoint pairs.
    pub fn route_table(&self) -> RouteTable {
        let nodes = self.nodes.len();
        let mut table = RouteTable {
            nodes,
            spans: vec![(0, 0); nodes * nodes],
            links: Vec::new(),
        };
        let endpoints = self.endpoints(|_| true);
        for &src in &endpoints {
            let pred = self.shortest_from(src);
            for &dst in &endpoints {
                let start = table.links.len();
                if src != dst && self.push_route(&pred, src, dst, &mut table.links) {
                    table.spans[src * nodes + dst] = (start, table.links.len());
                }
            }
        }
        table
    }
}

/// Precomputed endpoint-to-endpoint routes: a dense `src × nodes + dst`
/// table of spans into one flat list of link indices. An empty span
/// marks a pair with no route.
#[derive(Clone, Debug)]
pub struct RouteTable {
    /// Node count of the topology the table was built for.
    nodes: usize,
    /// `[start, end)` of each pair's route in `links`.
    spans: Vec<(usize, usize)>,
    links: Vec<usize>,
}

impl RouteTable {
    /// The link sequence from `src` to `dst` (`None` if unreachable,
    /// `src == dst`, or either id is not a node).
    pub fn get(&self, src: NodeId, dst: NodeId) -> Option<&[usize]> {
        if src >= self.nodes || dst >= self.nodes {
            return None;
        }
        let (start, end) = self.spans[src * self.nodes + dst];
        (start < end).then(|| &self.links[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ehp_has_the_papers_component_counts() {
        let t = Topology::ehp(8, 8);
        assert_eq!(
            t.endpoints(|k| matches!(k, NodeKind::GpuChiplet(_))).len(),
            8
        );
        assert_eq!(
            t.endpoints(|k| matches!(k, NodeKind::CpuChiplet(_))).len(),
            8
        );
        assert_eq!(t.endpoints(|k| matches!(k, NodeKind::HbmStack(_))).len(), 8);
        assert_eq!(
            t.endpoints(|k| matches!(k, NodeKind::ExternalInterface(_)))
                .len(),
            8
        );
    }

    #[test]
    fn every_endpoint_pair_is_connected() {
        for t in [Topology::ehp(8, 8), Topology::monolithic(8, 8)] {
            let eps = t.endpoints(|_| true);
            let table = t.route_table();
            for &a in &eps {
                for &b in &eps {
                    if a != b {
                        assert!(
                            table.get(a, b).is_some(),
                            "{:?} -> {:?}",
                            t.kind(a),
                            t.kind(b)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn routes_are_contiguous_paths() {
        let t = Topology::ehp(8, 8);
        let gpu0 = t.find(NodeKind::GpuChiplet(0)).unwrap();
        let hbm7 = t.find(NodeKind::HbmStack(7)).unwrap();
        let path = t.route(gpu0, hbm7).unwrap();
        assert!(!path.is_empty());
        let mut cur = gpu0;
        for &li in &path {
            assert_eq!(t.links()[li].from, cur);
            cur = t.links()[li].to;
        }
        assert_eq!(cur, hbm7);
    }

    #[test]
    fn remote_chiplet_routes_pay_two_extra_tsv_hops() {
        let t = Topology::ehp(8, 8);
        let gpu0 = t.find(NodeKind::GpuChiplet(0)).unwrap();
        let local_hbm = t.find(NodeKind::HbmStack(0)).unwrap();
        let remote_hbm = t.find(NodeKind::HbmStack(5)).unwrap();

        // Local: GPU -> its own stack, one TSV hop, no interposer.
        let local = t.route(gpu0, local_hbm).unwrap();
        assert_eq!(local.len(), 1);
        assert!(t.links()[local[0]].is_tsv);

        // Remote: must descend and ascend through TSVs (>= 2 TSV hops) and
        // cross the interposer.
        let remote = t.route(gpu0, remote_hbm).unwrap();
        let tsv_hops = remote.iter().filter(|&&li| t.links()[li].is_tsv).count();
        assert!(tsv_hops >= 2, "tsv hops = {tsv_hops}");
        assert!(remote.len() > local.len());
    }

    #[test]
    fn monolithic_routes_are_shorter_than_chiplet_routes() {
        let ehp = Topology::ehp(8, 8);
        let mono = Topology::monolithic(8, 8);
        let lat = |t: &Topology, a: NodeKind, b: NodeKind| -> u64 {
            let path = t.route(t.find(a).unwrap(), t.find(b).unwrap()).unwrap();
            path.iter()
                .map(|&li| u64::from(t.links()[li].latency_cycles))
                .sum()
        };
        let pairs = [
            (NodeKind::GpuChiplet(0), NodeKind::HbmStack(7)),
            (NodeKind::CpuChiplet(0), NodeKind::HbmStack(3)),
            (NodeKind::GpuChiplet(2), NodeKind::GpuChiplet(5)),
        ];
        for (a, b) in pairs {
            assert!(lat(&mono, a, b) < lat(&ehp, a, b), "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn chiplet_site_groups_stack_with_its_gpu() {
        assert_eq!(
            NodeKind::GpuChiplet(3).chiplet_site(),
            NodeKind::HbmStack(3).chiplet_site()
        );
        assert_ne!(
            NodeKind::GpuChiplet(3).chiplet_site(),
            NodeKind::CpuChiplet(3).chiplet_site()
        );
        assert_eq!(NodeKind::Crossbar.chiplet_site(), None);
    }

    #[test]
    fn ring_shortens_edge_to_edge_routes() {
        let chain = Topology::ehp(8, 8);
        let ring = Topology::ehp_ring(8, 8);
        let lat = |t: &Topology| {
            let a = t.find(NodeKind::GpuChiplet(0)).unwrap();
            let b = t.find(NodeKind::HbmStack(7)).unwrap();
            let path = t.route(a, b).unwrap();
            path.iter()
                .map(|&li| u64::from(t.links()[li].latency_cycles))
                .sum::<u64>()
        };
        assert!(
            lat(&ring) < lat(&chain),
            "ring {} vs chain {}",
            lat(&ring),
            lat(&chain)
        );
        // And the ring stays fully connected.
        let eps = ring.endpoints(|_| true);
        let table = ring.route_table();
        for &x in &eps {
            for &y in &eps {
                if x != y {
                    assert!(table.get(x, y).is_some());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pairs")]
    fn odd_gpu_chiplet_count_is_rejected() {
        let _ = Topology::ehp(7, 8);
    }

    #[test]
    fn out_of_range_route_endpoints_are_errors_not_panics() {
        let t = Topology::ehp(8, 8);
        let gpu0 = t.find(NodeKind::GpuChiplet(0)).unwrap();
        assert_eq!(
            t.route(gpu0, 10_000),
            Err(DegradeError::UnknownNode(10_000))
        );
        assert_eq!(t.try_kind(10_000), Err(DegradeError::UnknownNode(10_000)));
    }

    #[test]
    fn failed_chiplet_disappears_from_endpoints_and_routes() {
        let mut t = Topology::ehp(8, 8);
        let gpu3 = t.find(NodeKind::GpuChiplet(3)).unwrap();
        t.fail_node(gpu3).unwrap();
        assert!(t.is_failed(gpu3));
        assert!(!t
            .endpoints(|k| matches!(k, NodeKind::GpuChiplet(_)))
            .contains(&gpu3));
        // Routing to the dead chiplet is an explicit error.
        let cpu0 = t.find(NodeKind::CpuChiplet(0)).unwrap();
        assert_eq!(t.route(cpu0, gpu3), Err(DegradeError::UnknownNode(gpu3)));
        // Its stack hangs off the dead chiplet: live but unreachable.
        let hbm3 = t.find(NodeKind::HbmStack(3)).unwrap();
        assert_eq!(
            t.route(cpu0, hbm3),
            Err(DegradeError::Unreachable {
                src: cpu0,
                dst: hbm3
            })
        );
        // Double-failing is rejected.
        assert_eq!(t.fail_node(gpu3), Err(DegradeError::UnknownNode(gpu3)));
        // Everything else stays mutually reachable.
        let eps = t.endpoints(|k| !matches!(k, NodeKind::HbmStack(3)));
        for &a in &eps {
            for &b in &eps {
                if a != b {
                    assert!(t.route(a, b).is_ok(), "{:?} -> {:?}", t.kind(a), t.kind(b));
                }
            }
        }
    }

    #[test]
    fn ring_reroutes_around_a_cut_interposer_link() {
        let mut t = Topology::ehp_ring(8, 8);
        let r0 = t.find(NodeKind::InterposerRouter(0)).unwrap();
        let r1 = t.find(NodeKind::InterposerRouter(1)).unwrap();
        let gpu0 = t.find(NodeKind::GpuChiplet(0)).unwrap();
        let hbm2 = t.find(NodeKind::HbmStack(2)).unwrap();
        let before: u64 = t
            .route(gpu0, hbm2)
            .unwrap()
            .iter()
            .map(|&li| u64::from(t.links()[li].latency_cycles))
            .sum();
        let cut = t.fail_link_between(r0, r1).unwrap();
        assert_eq!(cut, 2, "duplex link cuts both directions");
        // Still reachable (the long way around the ring), at higher cost.
        let after: u64 = t
            .route(gpu0, hbm2)
            .unwrap()
            .iter()
            .map(|&li| u64::from(t.links()[li].latency_cycles))
            .sum();
        assert!(after > before, "reroute {after} should exceed {before}");
        // Cutting a non-existent link is an error value.
        assert!(matches!(
            t.fail_link_between(r0, r1),
            Err(DegradeError::UnknownComponent { .. })
        ));
    }

    #[test]
    fn chain_partition_surfaces_as_unreachable() {
        // The chain topology has no redundancy: one cut severs the package.
        let mut t = Topology::ehp(8, 8);
        let r0 = t.find(NodeKind::InterposerRouter(0)).unwrap();
        let r1 = t.find(NodeKind::InterposerRouter(1)).unwrap();
        t.fail_link_between(r0, r1).unwrap();
        let gpu0 = t.find(NodeKind::GpuChiplet(0)).unwrap();
        let gpu7 = t.find(NodeKind::GpuChiplet(7)).unwrap();
        assert_eq!(
            t.route(gpu0, gpu7),
            Err(DegradeError::Unreachable {
                src: gpu0,
                dst: gpu7
            })
        );
        // The route table simply omits the severed pairs.
        let table = t.route_table();
        assert!(table.get(gpu0, gpu7).is_none());
    }
}
