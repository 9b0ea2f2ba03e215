//! Collective-communication schedules with per-link contention.
//!
//! A collective is compiled against a concrete (possibly degraded)
//! [`FabricGraph`] into [`Round`]s of concurrent [`Transfer`]s. Each
//! round's duration is the *serialization* time of its most-loaded
//! channel — every transfer whose route crosses a channel queues behind
//! the others, so bytes accumulate per channel and the bottleneck sets
//! the pace — plus the longest route's end-to-end *latency*. Rounds that
//! repeat (the all-reduce ring's `2(n-1)` steps) carry a repeat count
//! instead of being materialized, keeping schedules small at any scale.
//!
//! Routes are [`FabricGraph::route`]'s deterministic breadth-first
//! search, run over one buffer set for the whole collective, so a
//! schedule (and its [`CollectiveSchedule::digest`]) is a pure function
//! of the graph state — the second half of the cross-process determinism
//! guarantee. A round's bytes land in one dense per-channel vector,
//! added in transfer order and then route order; sealing the round
//! drains it into the serialization time and the round's peak, which
//! both [`CollectiveSchedule::peak_link_bytes`] and the retransmit
//! pricing read.

use core::fmt;

use ena_faults::RetryPolicy;
use ena_model::hash::{StableHash, StableHasher};
use ena_model::units::Microseconds;

use crate::topology::{FabricError, FabricGraph, RouteSearch};

/// The shipped collective patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollectiveKind {
    /// Ring all-reduce: `2(n-1)` steps of neighbor chunk exchange.
    AllReduceRing,
    /// Nearest-neighbor halo exchange (right then left around the ring).
    HaloExchange,
    /// Dense all-to-all: everyone sends a slice to everyone else.
    AllToAll,
}

impl CollectiveKind {
    /// Every shipped collective, in a fixed order.
    pub const ALL: [CollectiveKind; 3] = [
        CollectiveKind::AllReduceRing,
        CollectiveKind::HaloExchange,
        CollectiveKind::AllToAll,
    ];

    /// The report label.
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::AllReduceRing => "all-reduce-ring",
            CollectiveKind::HaloExchange => "halo-exchange",
            CollectiveKind::AllToAll => "all-to-all",
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl StableHash for CollectiveKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(match self {
            CollectiveKind::AllReduceRing => 0,
            CollectiveKind::HaloExchange => 1,
            CollectiveKind::AllToAll => 2,
        });
    }
}

/// One point-to-point message inside a round.
#[derive(Clone, Debug, PartialEq)]
pub struct Transfer {
    /// Source EHP vertex.
    pub src: usize,
    /// Destination EHP vertex.
    pub dst: usize,
    /// Message size in bytes.
    pub bytes: f64,
    /// Directed channel indices the message traverses.
    pub route: Vec<usize>,
}

/// A set of transfers that start together.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    /// The concurrent transfers.
    pub transfers: Vec<Transfer>,
    /// Time the most-loaded channel spends draining its queued bytes.
    pub serialization_us: f64,
    /// End-to-end latency of the longest route in the round.
    pub latency_us: f64,
    /// How many times this round executes back to back.
    pub repeat: u64,
}

impl Round {
    /// Duration of one execution of this round.
    pub fn step_us(&self) -> f64 {
        self.serialization_us + self.latency_us
    }
}

/// A compiled collective.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveSchedule {
    /// The pattern this schedule implements.
    pub kind: CollectiveKind,
    /// The rounds, in execution order.
    pub rounds: Vec<Round>,
    /// Total time including repeats.
    pub total: Microseconds,
    /// Most bytes any single channel carries within one round — the
    /// contention hot spot.
    pub peak_link_bytes: f64,
}

impl CollectiveSchedule {
    /// Stable digest of the full schedule (routes, loads, timings): what
    /// the cross-process determinism suite compares.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        self.kind.stable_hash(&mut h);
        h.write_usize(self.rounds.len());
        for round in &self.rounds {
            h.write_u64(round.repeat);
            h.write_f64(round.serialization_us);
            h.write_f64(round.latency_us);
            h.write_usize(round.transfers.len());
            for t in &round.transfers {
                h.write_usize(t.src);
                h.write_usize(t.dst);
                h.write_f64(t.bytes);
                h.write_usize(t.route.len());
                for &li in &t.route {
                    h.write_usize(li);
                }
            }
        }
        h.write_f64(self.total.value());
        h.write_f64(self.peak_link_bytes);
        h.finish()
    }
}

/// Routes one message through the reused `search` and adds its bytes to
/// the per-channel `loads` of the open round.
fn transfer(
    graph: &FabricGraph,
    search: &mut RouteSearch,
    loads: &mut [f64],
    src: usize,
    dst: usize,
    bytes: f64,
) -> Result<Transfer, FabricError> {
    let route = graph.route_with(search, src, dst)?;
    for &li in &route {
        loads[li] += bytes;
    }
    Ok(Transfer {
        src,
        dst,
        bytes,
        route,
    })
}

/// Seals a round: serialization from the loaded channels' *effective*
/// (degradation-scaled) bandwidth, latency from the longest route.
/// Draining `loads` back to zero also yields the round's peak channel
/// bytes, returned beside the round. Unloaded channels hold 0.0, which
/// moves neither maximum: `f64::max` from 0.0 returns the non-NaN
/// operand, so the order the channels are visited in does not matter.
fn seal_round(
    graph: &FabricGraph,
    transfers: Vec<Transfer>,
    loads: &mut [f64],
    repeat: u64,
) -> (Round, f64) {
    let mut serialization_us: f64 = 0.0;
    let mut peak: f64 = 0.0;
    for (li, load) in loads.iter_mut().enumerate() {
        let bytes = std::mem::take(load);
        let gbps = graph.channel_gbps(li);
        if gbps > 0.0 {
            // GB/s is bytes/ns, so bytes / (gbps * 1e3) is microseconds.
            serialization_us = serialization_us.max(bytes / (gbps * 1e3));
        }
        peak = peak.max(bytes);
    }
    let mut latency_us: f64 = 0.0;
    for t in &transfers {
        let route_latency: f64 = t
            .route
            .iter()
            .filter_map(|&li| graph.links().get(li))
            .map(|l| l.latency.value())
            .sum();
        latency_us = latency_us.max(route_latency);
    }
    let round = Round {
        transfers,
        serialization_us,
        latency_us,
        repeat,
    };
    (round, peak)
}

/// Compiles `kind` moving `bytes_per_node` bytes of application data per
/// node over the surviving endpoints of `graph`. Every transfer routes
/// through one reused breadth-first search and adds its bytes to one
/// dense per-channel vector, which each sealed round drains.
///
/// # Errors
///
/// Propagates routing errors — in particular
/// [`FabricError::Unreachable`] when degradation has partitioned the
/// survivors.
pub fn schedule(
    graph: &FabricGraph,
    kind: CollectiveKind,
    bytes_per_node: f64,
) -> Result<CollectiveSchedule, FabricError> {
    compile(graph, kind, bytes_per_node).map(|(schedule, _)| schedule)
}

/// [`schedule`], plus each round's peak channel bytes in round order.
fn compile(
    graph: &FabricGraph,
    kind: CollectiveKind,
    bytes_per_node: f64,
) -> Result<(CollectiveSchedule, Vec<f64>), FabricError> {
    let alive = graph.alive_ehp();
    let n = alive.len();
    let mut search = RouteSearch::default();
    // Bytes per directed channel in the open round; every seal drains it.
    let mut loads = vec![0.0; graph.channel_count()];
    let mut sealed = Vec::new();
    if n >= 2 {
        match kind {
            CollectiveKind::AllReduceRing => {
                // Ring all-reduce over the alive-node ring: each of the
                // 2(n-1) steps exchanges one 1/n chunk with the ring
                // successor. All steps are load-isomorphic, so compile
                // one representative round with a repeat count.
                let chunk = bytes_per_node / n as f64;
                let mut transfers = Vec::with_capacity(n);
                for (i, &src) in alive.iter().enumerate() {
                    let dst = alive[(i + 1) % n];
                    transfers.push(transfer(graph, &mut search, &mut loads, src, dst, chunk)?);
                }
                sealed.push(seal_round(graph, transfers, &mut loads, 2 * (n as u64 - 1)));
            }
            CollectiveKind::HaloExchange => {
                // Right-neighbor shift, then left-neighbor shift: the two
                // directions use different channels (asymmetric links),
                // so they are separate rounds.
                for step in 0..2usize {
                    let mut transfers = Vec::with_capacity(n);
                    for (i, &src) in alive.iter().enumerate() {
                        let dst = if step == 0 {
                            alive[(i + 1) % n]
                        } else {
                            alive[(i + n - 1) % n]
                        };
                        let t = transfer(graph, &mut search, &mut loads, src, dst, bytes_per_node)?;
                        transfers.push(t);
                    }
                    sealed.push(seal_round(graph, transfers, &mut loads, 1));
                }
            }
            CollectiveKind::AllToAll => {
                // One dense round: every survivor slices its payload over
                // the other n-1.
                let slice = bytes_per_node / (n as f64 - 1.0);
                let mut transfers = Vec::with_capacity(n * (n - 1));
                for &src in &alive {
                    for &dst in &alive {
                        if src != dst {
                            let t = transfer(graph, &mut search, &mut loads, src, dst, slice)?;
                            transfers.push(t);
                        }
                    }
                }
                sealed.push(seal_round(graph, transfers, &mut loads, 1));
            }
        }
    }
    let (rounds, round_peaks): (Vec<Round>, Vec<f64>) = sealed.into_iter().unzip();
    let total: f64 = rounds.iter().map(|r| r.step_us() * r.repeat as f64).sum();
    let peak_link_bytes = round_peaks.iter().copied().fold(0.0f64, f64::max);
    let schedule = CollectiveSchedule {
        kind,
        rounds,
        total: Microseconds::new(total),
        peak_link_bytes,
    };
    Ok((schedule, round_peaks))
}

/// Per-link CRC retransmit pricing for collective schedules.
///
/// Inter-node links protect flits with CRC; a failed check retransmits
/// after a bounded exponential backoff governed by the hardened
/// [`RetryPolicy`]. Pricing is *expected-value* and therefore
/// deterministic: the same model applied to the same schedule always
/// yields the same stretched schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetransmitModel {
    /// Mean CRC failures per gigabyte crossing one link. Zero disables
    /// the model (the schedule is returned byte-identical).
    pub errors_per_gb: f64,
    /// Retry policy bounding attempts, backoff, and total timeout.
    pub retry: RetryPolicy,
}

impl RetransmitModel {
    /// The acceptance model: one CRC failure per ~20 GB per link under
    /// the default bounded-backoff policy.
    pub fn standard() -> Self {
        Self {
            errors_per_gb: 0.05,
            retry: RetryPolicy::default(),
        }
    }

    /// Probability that a channel carrying `bytes` suffers at least one
    /// CRC failure (Poisson arrival of errors along the payload).
    pub fn failure_probability(&self, bytes: f64) -> f64 {
        1.0 - (-(bytes / 1e9) * self.errors_per_gb).exp()
    }

    /// Expected transmissions per delivery when each attempt fails with
    /// probability `p`, truncated at the retry budget: `sum p^i`.
    pub fn expected_transmissions(&self, p: f64) -> f64 {
        let attempts = self.retry.max_retries.min(64);
        let mut sum = 0.0;
        let mut term = 1.0;
        for _ in 0..=attempts {
            sum += term;
            term *= p;
        }
        sum
    }

    /// Expected backoff stall per delivery: each retry `i` happens with
    /// probability `p^i` and waits the policy's doubling (capped)
    /// backoff. Bounded by the policy's worst-case timeout, so a lossy
    /// link can stall a round but never hang it.
    pub fn expected_backoff_us(&self, p: f64) -> f64 {
        let attempts = self.retry.max_retries.min(64);
        let mut total = 0.0;
        let mut prob = 1.0;
        for attempt in 1..=attempts {
            prob *= p;
            total += prob * self.retry.backoff_for(attempt);
        }
        total.min(self.retry.timeout_us())
    }
}

/// Compiles `kind` like [`schedule`], then stretches every round by the
/// expected CRC retransmit cost on its most-loaded channel: the
/// serialization time scales by the expected transmission count and the
/// round latency absorbs the expected (bounded) backoff stall.
///
/// A zero-error model returns the plain schedule byte-identically, so
/// healthy-path digests and goldens are unaffected.
///
/// # Errors
///
/// Propagates routing errors exactly as [`schedule`] does.
pub fn schedule_with_retransmits(
    graph: &FabricGraph,
    kind: CollectiveKind,
    bytes_per_node: f64,
    model: &RetransmitModel,
) -> Result<CollectiveSchedule, FabricError> {
    let (base, round_peaks) = compile(graph, kind, bytes_per_node)?;
    if model.errors_per_gb <= 0.0 {
        return Ok(base);
    }
    let peak_link_bytes = base.peak_link_bytes;
    let mut rounds = base.rounds;
    for (round, &peak) in rounds.iter_mut().zip(&round_peaks) {
        let p = model.failure_probability(peak);
        round.serialization_us *= model.expected_transmissions(p);
        round.latency_us += model.expected_backoff_us(p);
    }
    let total: f64 = rounds.iter().map(|r| r.step_us() * r.repeat as f64).sum();
    Ok(CollectiveSchedule {
        kind,
        rounds,
        total: Microseconds::new(total),
        peak_link_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FabricKind;

    fn fabric(kind: FabricKind, n: u32) -> FabricGraph {
        FabricGraph::build(kind, n).unwrap()
    }

    #[test]
    fn all_reduce_repeats_two_n_minus_one_times() {
        let g = fabric(FabricKind::Torus, 8);
        let s = schedule(&g, CollectiveKind::AllReduceRing, 1e6).unwrap();
        assert_eq!(s.rounds.len(), 1);
        assert_eq!(s.rounds.first().unwrap().repeat, 14);
        assert_eq!(s.rounds.first().unwrap().transfers.len(), 8);
        assert!(s.total.value() > 0.0);
    }

    #[test]
    fn halo_shifts_right_then_left_in_separate_rounds() {
        let g = fabric(FabricKind::Torus, 8);
        let s = schedule(&g, CollectiveKind::HaloExchange, 4e6).unwrap();
        assert_eq!(s.rounds.len(), 2);
        for round in &s.rounds {
            assert_eq!(round.transfers.len(), 8);
            assert_eq!(round.repeat, 1);
            assert!(round.step_us() > 0.0);
        }
        // The reverse channels (48 GB/s) bottleneck each shift: the
        // wrap-around transfer crosses one in both directions.
        let first = s.rounds.first().unwrap();
        assert!((first.serialization_us - 4e6 / 48e3).abs() < 1e-9);
    }

    #[test]
    fn all_to_all_is_the_contention_heavy_pattern() {
        let g = fabric(FabricKind::FatTree, 16);
        let a2a = schedule(&g, CollectiveKind::AllToAll, 1e6).unwrap();
        let halo = schedule(&g, CollectiveKind::HaloExchange, 1e6).unwrap();
        assert_eq!(a2a.rounds.first().unwrap().transfers.len(), 16 * 15);
        assert!(
            a2a.peak_link_bytes > halo.peak_link_bytes,
            "a2a {} vs halo {}",
            a2a.peak_link_bytes,
            halo.peak_link_bytes
        );
    }

    #[test]
    fn degraded_links_stretch_serialization() {
        let healthy = fabric(FabricKind::DragonflyLite, 16);
        let before = schedule(&healthy, CollectiveKind::AllToAll, 1e6).unwrap();
        let mut degraded = fabric(FabricKind::DragonflyLite, 16);
        degraded.degrade_route(0, 12, 80).unwrap();
        let after = schedule(&degraded, CollectiveKind::AllToAll, 1e6).unwrap();
        assert!(after.total > before.total);
    }

    #[test]
    fn dead_nodes_drop_out_of_the_pattern() {
        let mut g = fabric(FabricKind::DragonflyLite, 16);
        g.fail_ehp(3).unwrap();
        g.fail_ehp(9).unwrap();
        let s = schedule(&g, CollectiveKind::AllReduceRing, 1e6).unwrap();
        let round = s.rounds.first().unwrap();
        assert_eq!(round.transfers.len(), 14);
        assert_eq!(round.repeat, 26);
        assert!(round
            .transfers
            .iter()
            .all(|t| t.src != 3 && t.dst != 3 && t.src != 9 && t.dst != 9));
    }

    #[test]
    fn single_survivor_schedules_are_empty() {
        let mut g = fabric(FabricKind::Torus, 2);
        g.fail_ehp(1).unwrap();
        for kind in CollectiveKind::ALL {
            let s = schedule(&g, kind, 1e6).unwrap();
            assert!(s.rounds.is_empty());
            assert_eq!(s.total, Microseconds::ZERO);
        }
    }

    #[test]
    fn zero_error_retransmit_model_is_byte_identical() {
        let g = fabric(FabricKind::Torus, 8);
        let model = RetransmitModel {
            errors_per_gb: 0.0,
            ..RetransmitModel::standard()
        };
        for kind in CollectiveKind::ALL {
            let plain = schedule(&g, kind, 2e6).unwrap();
            let priced = schedule_with_retransmits(&g, kind, 2e6, &model).unwrap();
            assert_eq!(plain, priced);
            assert_eq!(plain.digest(), priced.digest());
        }
    }

    #[test]
    fn retransmits_stretch_rounds_but_stay_bounded() {
        let g = fabric(FabricKind::FatTree, 16);
        let model = RetransmitModel::standard();
        for kind in CollectiveKind::ALL {
            let plain = schedule(&g, kind, 4e6).unwrap();
            let priced = schedule_with_retransmits(&g, kind, 4e6, &model).unwrap();
            assert!(priced.total > plain.total, "{kind}");
            for (before, after) in plain.rounds.iter().zip(&priced.rounds) {
                assert!(after.serialization_us >= before.serialization_us);
                // The added stall is the expected backoff, which the
                // policy bounds by its worst-case timeout.
                let added = after.latency_us - before.latency_us;
                assert!(added >= 0.0);
                assert!(added <= model.retry.timeout_us() + 1e-9);
            }
        }
    }

    #[test]
    fn lossier_links_cost_strictly_more() {
        let g = fabric(FabricKind::DragonflyLite, 16);
        let mut last = schedule(&g, CollectiveKind::AllToAll, 4e6)
            .unwrap()
            .total
            .value();
        for errors_per_gb in [0.02, 0.1, 0.5] {
            let model = RetransmitModel {
                errors_per_gb,
                ..RetransmitModel::standard()
            };
            let total = schedule_with_retransmits(&g, CollectiveKind::AllToAll, 4e6, &model)
                .unwrap()
                .total
                .value();
            assert!(total > last, "rate {errors_per_gb}: {total} vs {last}");
            last = total;
        }
    }

    #[test]
    fn digests_are_stable_and_kind_sensitive() {
        let g = fabric(FabricKind::FatTree, 8);
        let a = schedule(&g, CollectiveKind::AllReduceRing, 1e6).unwrap();
        let b = schedule(&g, CollectiveKind::AllReduceRing, 1e6).unwrap();
        assert_eq!(a.digest(), b.digest());
        let halo = schedule(&g, CollectiveKind::HaloExchange, 1e6).unwrap();
        assert_ne!(a.digest(), halo.digest());
    }
}
