//! Cabinet-level inter-node fabric topologies and deterministic routing.
//!
//! A [`FabricGraph`] connects EHP nodes (and, for the fat-tree, leaf and
//! spine switches) with Infinity-Fabric-style links whose latency and
//! bandwidth are *asymmetric per direction* — every physical connection
//! is a pair of directed channels with their own parameters, matching
//! the measured forward/reverse asymmetry of real inter-APU links.
//!
//! Three topologies ship, all built so that no single node or physical
//! link failure can partition the surviving EHP endpoints:
//!
//! - **fat-tree** — every EHP node is dual-homed to two leaf switches,
//!   every leaf uplinks to two spines;
//! - **torus** — a 2D wrap-around grid when the node count factors into
//!   a grid with both sides >= 3, otherwise a bidirectional ring (dual
//!   rail for the 2-node degenerate case);
//! - **dragonfly-lite** — groups of ~4 nodes, all-to-all inside each
//!   group, one global link per node to a rotating remote group (a
//!   single fully connected group below 8 nodes).
//!
//! Routing is breadth-first and hop-minimal with a lowest-index
//! tie-break, so the route table is a pure function of the graph — the
//! basis of the cross-process determinism guarantee.

use std::collections::BTreeMap;

use core::fmt;

use ena_model::error::DegradeError;
use ena_model::hash::{StableHash, StableHasher};
use ena_model::units::{GigabytesPerSec, Microseconds};

/// Everything that can go wrong building, mutating, or routing a fabric.
#[derive(Debug)]
pub enum FabricError {
    /// A fabric needs at least two EHP nodes.
    TooFewNodes {
        /// The offending node count.
        nodes: u32,
    },
    /// The topology name is not one of the shipped kinds.
    UnknownTopology(String),
    /// The workload name has no calibrated profile.
    UnknownWorkload(String),
    /// A node index outside the fabric.
    UnknownNode(usize),
    /// The operation targeted a failed node.
    DeadNode(usize),
    /// No live route exists between two endpoints.
    Unreachable {
        /// Source EHP node.
        from: usize,
        /// Destination EHP node.
        to: usize,
    },
    /// The requested failure would kill the last surviving EHP node.
    NoSurvivors,
    /// A bandwidth-degradation percentage outside `0..100`.
    BadPercent(u32),
    /// An intra-node campaign (driving a straggler's slowdown) failed.
    IntraNode(DegradeError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooFewNodes { nodes } => {
                write!(f, "a fabric needs at least 2 EHP nodes, got {nodes}")
            }
            Self::UnknownTopology(s) => write!(
                f,
                "unknown fabric topology '{s}'; known: fat-tree, torus, dragonfly"
            ),
            Self::UnknownWorkload(s) => write!(f, "unknown workload '{s}'"),
            Self::UnknownNode(i) => write!(f, "node {i} is outside the fabric"),
            Self::DeadNode(i) => write!(f, "node {i} has failed"),
            Self::Unreachable { from, to } => {
                write!(f, "no live route from node {from} to node {to}")
            }
            Self::NoSurvivors => write!(f, "failure would kill the last surviving node"),
            Self::BadPercent(p) => write!(f, "degradation percent {p} outside 0..100"),
            Self::IntraNode(e) => write!(f, "intra-node straggler campaign: {e}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::IntraNode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DegradeError> for FabricError {
    fn from(e: DegradeError) -> Self {
        Self::IntraNode(e)
    }
}

/// The shipped cabinet topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FabricKind {
    /// Dual-homed two-level fat-tree (leaf + spine switches).
    FatTree,
    /// 2D wrap-around grid, degrading to a bidirectional ring.
    Torus,
    /// Dragonfly-lite: dense groups bridged by global links.
    DragonflyLite,
}

impl FabricKind {
    /// Every shipped topology, in a fixed order.
    pub const ALL: [FabricKind; 3] = [
        FabricKind::FatTree,
        FabricKind::Torus,
        FabricKind::DragonflyLite,
    ];

    /// The CLI / cache-file label.
    pub fn label(self) -> &'static str {
        match self {
            FabricKind::FatTree => "fat-tree",
            FabricKind::Torus => "torus",
            FabricKind::DragonflyLite => "dragonfly",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownTopology`] for anything but `fat-tree`,
    /// `torus`, `dragonfly` (or `dragonfly-lite`).
    pub fn parse(s: &str) -> Result<Self, FabricError> {
        match s {
            "fat-tree" | "fattree" => Ok(FabricKind::FatTree),
            "torus" => Ok(FabricKind::Torus),
            "dragonfly" | "dragonfly-lite" => Ok(FabricKind::DragonflyLite),
            other => Err(FabricError::UnknownTopology(other.to_string())),
        }
    }
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl StableHash for FabricKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(match self {
            FabricKind::FatTree => 0,
            FabricKind::Torus => 1,
            FabricKind::DragonflyLite => 2,
        });
    }
}

/// What a fabric graph vertex is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricNodeKind {
    /// An EHP compute node (a traffic endpoint).
    Ehp(u32),
    /// A fat-tree leaf switch.
    Leaf(u32),
    /// A fat-tree spine switch.
    Spine(u32),
}

/// One *directed* channel of a physical link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricLink {
    /// Source vertex.
    pub from: usize,
    /// Destination vertex.
    pub to: usize,
    /// Traversal latency of this direction.
    pub latency: Microseconds,
    /// Healthy bandwidth of this direction.
    pub bandwidth: GigabytesPerSec,
}

/// One direction's parameters.
struct Channel {
    latency_us: f64,
    gbps: f64,
}

/// A physical link class: forward (low index -> high index) and reverse
/// channels with independent — asymmetric — parameters.
struct LinkClass {
    forward: Channel,
    reverse: Channel,
}

/// EHP <-> leaf-switch edge links (fat-tree): the downstream (switch to
/// node) direction is wider and faster, as reads dominate.
const EDGE_LINK: LinkClass = LinkClass {
    forward: Channel {
        latency_us: 0.60,
        gbps: 48.0,
    },
    reverse: Channel {
        latency_us: 0.45,
        gbps: 64.0,
    },
};

/// Leaf <-> spine trunk links (fat-tree).
const TRUNK_LINK: LinkClass = LinkClass {
    forward: Channel {
        latency_us: 0.70,
        gbps: 96.0,
    },
    reverse: Channel {
        latency_us: 0.55,
        gbps: 112.0,
    },
};

/// Direct node-to-node links (torus neighbors, dragonfly intra-group).
const DIRECT_LINK: LinkClass = LinkClass {
    forward: Channel {
        latency_us: 0.50,
        gbps: 64.0,
    },
    reverse: Channel {
        latency_us: 0.65,
        gbps: 48.0,
    },
};

/// Dragonfly global (inter-group) links: long optical hops.
const GLOBAL_LINK: LinkClass = LinkClass {
    forward: Channel {
        latency_us: 1.40,
        gbps: 32.0,
    },
    reverse: Channel {
        latency_us: 1.60,
        gbps: 24.0,
    },
};

/// Predecessor of a vertex the search has not reached.
const NO_PRED: usize = usize::MAX;

/// Buffers of one breadth-first route search: each vertex's predecessor
/// channel ([`NO_PRED`] until reached), the seen flags, and the current
/// and next frontier levels. [`FabricGraph::route_with`] resets them on
/// every call, so one set serves a whole route table or collective.
#[derive(Debug, Default)]
pub(crate) struct RouteSearch {
    pred: Vec<usize>,
    seen: Vec<bool>,
    frontier: Vec<usize>,
    next: Vec<usize>,
}

/// The cabinet-level fabric: vertices, paired directed channels, and
/// liveness/degradation state.
#[derive(Clone, Debug)]
pub struct FabricGraph {
    kind: FabricKind,
    ehp_count: u32,
    nodes: Vec<FabricNodeKind>,
    links: Vec<FabricLink>,
    /// Outgoing link indices per vertex, sorted by (destination, index)
    /// so breadth-first routing is deterministic.
    adjacency: Vec<Vec<usize>>,
    node_alive: Vec<bool>,
    link_active: Vec<bool>,
    /// Residual bandwidth multiplier per channel (1.0 healthy).
    link_scale: Vec<f64>,
}

impl FabricGraph {
    /// Builds a `kind` fabric over `nodes` EHP endpoints.
    ///
    /// # Errors
    ///
    /// [`FabricError::TooFewNodes`] below two nodes.
    pub fn build(kind: FabricKind, nodes: u32) -> Result<Self, FabricError> {
        if nodes < 2 {
            return Err(FabricError::TooFewNodes { nodes });
        }
        let mut g = Self {
            kind,
            ehp_count: nodes,
            nodes: (0..nodes).map(FabricNodeKind::Ehp).collect(),
            links: Vec::new(),
            adjacency: Vec::new(),
            node_alive: Vec::new(),
            link_active: Vec::new(),
            link_scale: Vec::new(),
        };
        match kind {
            FabricKind::FatTree => g.wire_fat_tree(),
            FabricKind::Torus => g.wire_torus(),
            FabricKind::DragonflyLite => g.wire_dragonfly(),
        }
        g.finish_wiring();
        Ok(g)
    }

    fn add_vertex(&mut self, kind: FabricNodeKind) -> usize {
        self.nodes.push(kind);
        self.nodes.len() - 1
    }

    /// Adds one physical link between `a` and `b` as a pair of directed
    /// channels with the class's asymmetric parameters. The forward
    /// channel runs from the lower vertex index to the higher.
    fn connect(&mut self, a: usize, b: usize, class: &LinkClass) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.links.push(FabricLink {
            from: lo,
            to: hi,
            latency: Microseconds::new(class.forward.latency_us),
            bandwidth: GigabytesPerSec::new(class.forward.gbps),
        });
        self.links.push(FabricLink {
            from: hi,
            to: lo,
            latency: Microseconds::new(class.reverse.latency_us),
            bandwidth: GigabytesPerSec::new(class.reverse.gbps),
        });
    }

    fn finish_wiring(&mut self) {
        let n = self.nodes.len();
        self.adjacency = vec![Vec::new(); n];
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        order.sort_by_key(|&i| (self.links[i].from, self.links[i].to, i));
        for i in order {
            let from = self.links[i].from;
            self.adjacency[from].push(i);
        }
        self.node_alive = vec![true; n];
        self.link_active = vec![true; self.links.len()];
        self.link_scale = vec![1.0; self.links.len()];
    }

    /// Pod size of the fat-tree and nominal group size of the dragonfly.
    const GROUP: usize = 4;

    fn wire_fat_tree(&mut self) {
        let n = self.ehp_count as usize;
        let pods = n.div_ceil(Self::GROUP);
        let leaf_count = pods.max(2);
        let leaves: Vec<usize> = (0..leaf_count)
            .map(|i| self.add_vertex(FabricNodeKind::Leaf(i as u32)))
            .collect();
        let spines: Vec<usize> = (0..2)
            .map(|i| self.add_vertex(FabricNodeKind::Spine(i as u32)))
            .collect();
        // Dual-homing: each node uplinks to its pod leaf and the next
        // leaf around, so a leaf (or one edge link) can die without
        // stranding anyone.
        for node in 0..n {
            let pod = node / Self::GROUP;
            let primary = leaves[pod % leaf_count];
            let secondary = leaves[(pod + 1) % leaf_count];
            self.connect(node, primary, &EDGE_LINK);
            self.connect(node, secondary, &EDGE_LINK);
        }
        for &leaf in &leaves {
            for &spine in &spines {
                self.connect(leaf, spine, &TRUNK_LINK);
            }
        }
    }

    fn wire_torus(&mut self) {
        let n = self.ehp_count as usize;
        // Largest divisor r <= sqrt(n) giving a grid with both sides >= 3.
        let mut rows = 0;
        let mut r = 1;
        while r * r <= n {
            if n % r == 0 && r >= 3 && n / r >= 3 {
                rows = r;
            }
            r += 1;
        }
        if rows == 0 {
            // Ring fallback. A 2-node ring would be a single physical
            // link; dual-rail it so one link failure cannot partition.
            for i in 0..n {
                self.connect(i, (i + 1) % n, &DIRECT_LINK);
            }
            if n == 2 {
                self.connect(0, 1, &DIRECT_LINK);
            }
            return;
        }
        let cols = n / rows;
        let at = |x: usize, y: usize| y * cols + x;
        for y in 0..rows {
            for x in 0..cols {
                self.connect(at(x, y), at((x + 1) % cols, y), &DIRECT_LINK);
                self.connect(at(x, y), at(x, (y + 1) % rows), &DIRECT_LINK);
            }
        }
    }

    fn wire_dragonfly(&mut self) {
        let n = self.ehp_count as usize;
        if n < 2 * Self::GROUP {
            // One fully connected group.
            for a in 0..n {
                for b in (a + 1)..n {
                    self.connect(a, b, &DIRECT_LINK);
                }
            }
            if n == 2 {
                self.connect(0, 1, &DIRECT_LINK);
            }
            return;
        }
        let groups = n / Self::GROUP;
        // Members distribute round-robin-by-block: group g holds the
        // contiguous run [bounds[g], bounds[g+1]).
        let base = n / groups;
        let extra = n % groups;
        let mut bounds = Vec::with_capacity(groups + 1);
        let mut acc = 0;
        bounds.push(0);
        for g in 0..groups {
            acc += base + usize::from(g < extra);
            bounds.push(acc);
        }
        for g in 0..groups {
            let members: Vec<usize> = (bounds[g]..bounds[g + 1]).collect();
            // Intra-group all-to-all.
            for (i, &a) in members.iter().enumerate() {
                for &b in members.iter().skip(i + 1) {
                    self.connect(a, b, &DIRECT_LINK);
                }
            }
            // One global link per member, rotating over remote groups so
            // consecutive members reach distinct neighbors.
            for (j, &a) in members.iter().enumerate() {
                let target_group = (g + 1 + (j % (groups - 1))) % groups;
                let span = bounds[target_group + 1] - bounds[target_group];
                let b = bounds[target_group] + (j % span);
                self.connect(a, b, &GLOBAL_LINK);
            }
        }
    }

    /// The topology kind this graph was built as.
    pub fn kind(&self) -> FabricKind {
        self.kind
    }

    /// EHP endpoints the fabric was built with (dead or alive).
    pub fn ehp_count(&self) -> u32 {
        self.ehp_count
    }

    /// All vertices (EHP nodes plus switches).
    pub fn vertex_count(&self) -> usize {
        self.nodes.len()
    }

    /// Directed channels (two per physical link).
    pub fn channel_count(&self) -> usize {
        self.links.len()
    }

    /// The directed channels themselves.
    pub fn links(&self) -> &[FabricLink] {
        &self.links
    }

    /// Surviving EHP endpoints, ascending.
    pub fn alive_ehp(&self) -> Vec<usize> {
        (0..self.ehp_count as usize)
            .filter(|&i| self.node_alive[i])
            .collect()
    }

    /// Unordered pairs `(a, b)` with `a < b` joined by at least one
    /// active physical link.
    pub fn physical_links(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = self
            .links
            .iter()
            .zip(&self.link_active)
            .filter(|(_, &active)| active)
            .map(|(l, _)| {
                if l.from < l.to {
                    (l.from, l.to)
                } else {
                    (l.to, l.from)
                }
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Effective bandwidth of channel `i` after degradation, in GB/s.
    pub fn channel_gbps(&self, i: usize) -> f64 {
        self.links.get(i).map_or(0.0, |l| {
            l.bandwidth.value() * self.link_scale.get(i).copied().unwrap_or(0.0)
        })
    }

    /// Fails EHP node `node`: it leaves the machine and every channel
    /// touching it goes dark.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownNode`] outside the fabric,
    /// [`FabricError::DeadNode`] if already failed, and
    /// [`FabricError::NoSurvivors`] if it is the last EHP alive.
    pub fn fail_ehp(&mut self, node: u32) -> Result<(), FabricError> {
        let i = node as usize;
        if node >= self.ehp_count {
            return Err(FabricError::UnknownNode(i));
        }
        if !self.node_alive[i] {
            return Err(FabricError::DeadNode(i));
        }
        if self.alive_ehp().len() <= 1 {
            return Err(FabricError::NoSurvivors);
        }
        self.node_alive[i] = false;
        for (li, link) in self.links.iter().enumerate() {
            if link.from == i || link.to == i {
                self.link_active[li] = false;
            }
        }
        Ok(())
    }

    /// Fails the physical link between vertices `a` and `b`: every
    /// channel joining them (both directions, all rails) goes dark.
    /// Returns the number of channels cut.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownNode`] for an out-of-range vertex.
    pub fn fail_link_between(&mut self, a: usize, b: usize) -> Result<usize, FabricError> {
        if a >= self.nodes.len() {
            return Err(FabricError::UnknownNode(a));
        }
        if b >= self.nodes.len() {
            return Err(FabricError::UnknownNode(b));
        }
        let mut cut = 0;
        for (li, link) in self.links.iter().enumerate() {
            let joins = (link.from == a && link.to == b) || (link.from == b && link.to == a);
            if joins && self.link_active[li] {
                self.link_active[li] = false;
                cut += 1;
            }
        }
        Ok(cut)
    }

    /// Degrades every channel on the current round-trip route between
    /// EHP nodes `a` and `b` by `percent` percent of bandwidth — a sick
    /// cable somewhere along the path. Returns the number of channels
    /// touched.
    ///
    /// # Errors
    ///
    /// [`FabricError::BadPercent`] for `percent >= 100`, plus any
    /// routing error between the endpoints.
    pub fn degrade_route(&mut self, a: u32, b: u32, percent: u32) -> Result<usize, FabricError> {
        if percent >= 100 {
            return Err(FabricError::BadPercent(percent));
        }
        let factor = 1.0 - f64::from(percent) / 100.0;
        let mut touched = Vec::new();
        touched.extend(self.route(a as usize, b as usize)?);
        touched.extend(self.route(b as usize, a as usize)?);
        touched.sort_unstable();
        touched.dedup();
        for &li in &touched {
            self.link_scale[li] *= factor;
        }
        Ok(touched.len())
    }

    /// Hop-minimal route from `src` to `dst` as directed channel
    /// indices, deterministic via lowest-index tie-breaking. `src ==
    /// dst` routes over zero channels. Each call searches with fresh
    /// buffers; [`FabricGraph::route_table`] and the collective compiler
    /// run the same search over one reused set.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnknownNode`] / [`FabricError::DeadNode`] for bad
    /// endpoints, [`FabricError::Unreachable`] when no live path exists.
    pub fn route(&self, src: usize, dst: usize) -> Result<Vec<usize>, FabricError> {
        self.route_with(&mut RouteSearch::default(), src, dst)
    }

    /// [`FabricGraph::route`] over the caller's search buffers, which it
    /// resets first, so one set serves any number of searches.
    pub(crate) fn route_with(
        &self,
        search: &mut RouteSearch,
        src: usize,
        dst: usize,
    ) -> Result<Vec<usize>, FabricError> {
        for &v in &[src, dst] {
            if v >= self.nodes.len() {
                return Err(FabricError::UnknownNode(v));
            }
            if !self.node_alive[v] {
                return Err(FabricError::DeadNode(v));
            }
        }
        if src == dst {
            return Ok(Vec::new());
        }
        let RouteSearch {
            pred,
            seen,
            frontier,
            next,
        } = search;
        pred.clear();
        pred.resize(self.nodes.len(), NO_PRED);
        seen.clear();
        seen.resize(self.nodes.len(), false);
        frontier.clear();
        // Breadth-first from src, one level per pass; adjacency is
        // (destination, index) sorted, so the first discovery of each
        // vertex is canonical.
        seen[src] = true;
        frontier.push(src);
        let mut hops = 0;
        while !frontier.is_empty() && !seen[dst] {
            next.clear();
            for &v in frontier.iter() {
                for &li in &self.adjacency[v] {
                    if !self.link_active[li] {
                        continue;
                    }
                    let to = self.links[li].to;
                    if seen[to] || !self.node_alive[to] {
                        continue;
                    }
                    seen[to] = true;
                    pred[to] = li;
                    next.push(to);
                }
            }
            std::mem::swap(frontier, next);
            hops += 1;
        }
        if !seen[dst] {
            return Err(FabricError::Unreachable { from: src, to: dst });
        }
        // The destination sits `hops` levels out, one channel per level.
        let mut path = Vec::with_capacity(hops);
        let mut at = dst;
        while at != src {
            let li = pred[at];
            if li == NO_PRED {
                return Err(FabricError::Unreachable { from: src, to: dst });
            }
            path.push(li);
            at = self.links[li].from;
        }
        path.reverse();
        Ok(path)
    }

    /// Full route table over ordered pairs of surviving EHP endpoints,
    /// searched over one reused buffer set.
    ///
    /// # Errors
    ///
    /// [`FabricError::Unreachable`] if any surviving pair is partitioned.
    pub fn route_table(&self) -> Result<BTreeMap<(usize, usize), Vec<usize>>, FabricError> {
        let alive = self.alive_ehp();
        let mut search = RouteSearch::default();
        let mut table = BTreeMap::new();
        for &src in &alive {
            for &dst in &alive {
                if src != dst {
                    table.insert((src, dst), self.route_with(&mut search, src, dst)?);
                }
            }
        }
        Ok(table)
    }

    /// True when every surviving EHP endpoint can reach every other.
    /// Channels come in bidirectional pairs that fail together, so one
    /// breadth-first sweep from the lowest survivor settles mutuality.
    pub fn all_ehp_mutually_reachable(&self) -> bool {
        let alive = self.alive_ehp();
        let Some(&start) = alive.first() else {
            return true;
        };
        let mut seen = vec![false; self.nodes.len()];
        seen[start] = true;
        let mut frontier = vec![start];
        while let Some(v) = frontier.pop() {
            for &li in &self.adjacency[v] {
                if !self.link_active[li] {
                    continue;
                }
                let to = self.links[li].to;
                if !seen[to] && self.node_alive[to] {
                    seen[to] = true;
                    frontier.push(to);
                }
            }
        }
        alive.iter().all(|&i| seen[i])
    }

    /// Longest hop-minimal route over surviving EHP pairs.
    ///
    /// # Errors
    ///
    /// Propagates routing errors from [`FabricGraph::route_table`].
    pub fn diameter_hops(&self) -> Result<usize, FabricError> {
        Ok(self
            .route_table()?
            .values()
            .map(Vec::len)
            .max()
            .unwrap_or(0))
    }

    /// Deterministic digest of the live route table and every channel's
    /// state (endpoints, latency, residual bandwidth): the quantity the
    /// cross-process determinism suite compares.
    ///
    /// # Errors
    ///
    /// Propagates routing errors from [`FabricGraph::route_table`].
    pub fn route_table_digest(&self) -> Result<u64, FabricError> {
        let mut h = StableHasher::new();
        self.kind.stable_hash(&mut h);
        h.write_u32(self.ehp_count);
        for ((src, dst), path) in self.route_table()? {
            h.write_usize(src);
            h.write_usize(dst);
            h.write_usize(path.len());
            for li in path {
                h.write_usize(li);
            }
        }
        for (li, link) in self.links.iter().enumerate() {
            h.write_usize(link.from);
            h.write_usize(link.to);
            h.write_bool(self.link_active[li]);
            h.write_f64(link.latency.value());
            h.write_f64(self.channel_gbps(li));
        }
        Ok(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_testkit::prelude::*;

    #[test]
    fn labels_round_trip() {
        for kind in FabricKind::ALL {
            assert_eq!(FabricKind::parse(kind.label()).unwrap(), kind);
        }
        assert!(matches!(
            FabricKind::parse("hypercube"),
            Err(FabricError::UnknownTopology(_))
        ));
    }

    #[test]
    fn tiny_fabrics_are_rejected() {
        for kind in FabricKind::ALL {
            assert!(matches!(
                FabricGraph::build(kind, 1),
                Err(FabricError::TooFewNodes { nodes: 1 })
            ));
            assert!(FabricGraph::build(kind, 2).is_ok());
        }
    }

    #[test]
    fn channels_are_asymmetric_per_direction() {
        let g = FabricGraph::build(FabricKind::Torus, 8).unwrap();
        // Every physical link contributes a forward and a reverse
        // channel with different latency and bandwidth.
        let fwd = g.links.iter().find(|l| l.from < l.to).unwrap();
        let rev = g
            .links
            .iter()
            .find(|l| l.from == fwd.to && l.to == fwd.from)
            .unwrap();
        assert_ne!(fwd.latency, rev.latency);
        assert_ne!(fwd.bandwidth, rev.bandwidth);
    }

    #[test]
    fn routes_are_hop_minimal_and_symmetric_in_length() {
        for kind in FabricKind::ALL {
            let g = FabricGraph::build(kind, 16).unwrap();
            let table = g.route_table().unwrap();
            for ((src, dst), path) in &table {
                assert!(!path.is_empty(), "{kind}: empty route {src}->{dst}");
                let back = table.get(&(*dst, *src)).unwrap();
                assert_eq!(
                    path.len(),
                    back.len(),
                    "{kind}: asymmetric hop count {src}<->{dst}"
                );
            }
        }
    }

    #[test]
    fn torus_prefers_grids_and_falls_back_to_rings() {
        // 16 = 4x4 grid: every node has degree 4 (two physical links per
        // dimension), so 16 nodes x 4 / 2 = 32 physical links.
        let grid = FabricGraph::build(FabricKind::Torus, 16).unwrap();
        assert_eq!(grid.physical_links().len(), 32);
        // 7 is prime: ring with 7 physical links.
        let ring = FabricGraph::build(FabricKind::Torus, 7).unwrap();
        assert_eq!(ring.physical_links().len(), 7);
    }

    #[test]
    fn failing_a_node_reroutes_the_rest() {
        let mut g = FabricGraph::build(FabricKind::DragonflyLite, 16).unwrap();
        g.fail_ehp(3).unwrap();
        assert!(g.all_ehp_mutually_reachable());
        assert!(matches!(g.route(3, 5), Err(FabricError::DeadNode(3))));
        assert!(matches!(g.fail_ehp(3), Err(FabricError::DeadNode(3))));
        assert_eq!(g.alive_ehp().len(), 15);
    }

    #[test]
    fn the_last_survivor_cannot_be_killed() {
        let mut g = FabricGraph::build(FabricKind::Torus, 2).unwrap();
        g.fail_ehp(0).unwrap();
        assert!(matches!(g.fail_ehp(1), Err(FabricError::NoSurvivors)));
    }

    #[test]
    fn degrading_a_route_reduces_bandwidth_but_keeps_connectivity() {
        let mut g = FabricGraph::build(FabricKind::FatTree, 16).unwrap();
        let before: f64 = (0..g.channel_count()).map(|i| g.channel_gbps(i)).sum();
        let touched = g.degrade_route(0, 9, 50).unwrap();
        assert!(touched >= 2, "round trip touches both directions");
        let after: f64 = (0..g.channel_count()).map(|i| g.channel_gbps(i)).sum();
        assert!(after < before);
        assert!(g.all_ehp_mutually_reachable());
        assert!(matches!(
            g.degrade_route(0, 9, 100),
            Err(FabricError::BadPercent(100))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// One search buffer set reused across every ordered vertex pair
        /// (switches and dead nodes included) routes exactly like fresh
        /// buffers per search, on graphs after random node losses, link
        /// cuts and degraded round trips.
        #[test]
        fn a_reused_search_routes_like_fresh_buffers(
            kind in prop_oneof![
                Just(FabricKind::FatTree),
                Just(FabricKind::Torus),
                Just(FabricKind::DragonflyLite),
            ],
            nodes in 2u32..41,
            seed in 0u64..u64::MAX,
        ) {
            let mut g = FabricGraph::build(kind, nodes).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..rng.random_range(0..=3usize) {
                let alive = g.alive_ehp();
                let pick = alive[rng.random_range(0..alive.len())];
                let links = g.physical_links();
                match rng.random_range(0..3u32) {
                    // Losing the last survivor or partitioning the fleet
                    // is refused or leaves unroutable pairs; both are fine.
                    0 => {
                        let _ = g.fail_ehp(pick as u32);
                    }
                    1 if !links.is_empty() => {
                        let (a, b) = links[rng.random_range(0..links.len())];
                        g.fail_link_between(a, b).unwrap();
                    }
                    _ => {
                        let other = alive[rng.random_range(0..alive.len())];
                        let _ = g.degrade_route(pick as u32, other as u32, 50);
                    }
                }
            }
            let shown = |r: Result<Vec<usize>, FabricError>| r.map_err(|e| e.to_string());
            let mut search = RouteSearch::default();
            for src in 0..g.vertex_count() {
                for dst in 0..g.vertex_count() {
                    let reused = shown(g.route_with(&mut search, src, dst));
                    let fresh = shown(g.route(src, dst));
                    prop_assert!(
                        reused == fresh,
                        "{kind} x{nodes} {src}->{dst}: reused {reused:?}, fresh {fresh:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn digests_are_deterministic_and_sensitive() {
        for kind in FabricKind::ALL {
            let a = FabricGraph::build(kind, 12).unwrap();
            let b = FabricGraph::build(kind, 12).unwrap();
            assert_eq!(
                a.route_table_digest().unwrap(),
                b.route_table_digest().unwrap()
            );
            let mut degraded = FabricGraph::build(kind, 12).unwrap();
            degraded.degrade_route(0, 5, 50).unwrap();
            assert_ne!(
                a.route_table_digest().unwrap(),
                degraded.route_table_digest().unwrap(),
                "{kind}: degradation must change the digest"
            );
        }
    }
}
