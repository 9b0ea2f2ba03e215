//! Fault plans: what fails, and when.
//!
//! A [`FaultPlan`] is a deterministic schedule of failures at simulated
//! timestamps. Its event kind is a type parameter: package components
//! ([`FaultKind`], the default) here, whole nodes in
//! [`NodeFaultPlan`](crate::multinode::NodeFaultPlan). Plans can be
//! built explicitly (one [`FaultEvent`] at a time) or sampled from a
//! seed with [`FaultPlan::standard_campaign`], which draws the acceptance
//! campaign — one GPU chiplet, one HBM stack, two interposer ring
//! segments — with times and victims fixed entirely by the seed, so two
//! runs of the same plan produce byte-identical reports.

use core::fmt;

use ena_testkit::rng::SplitMix64;

/// One injectable component failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// GPU chiplet `index` dies (its HBM stack is orphaned as collateral:
    /// the stack attaches to the package only through its chiplet's TSVs).
    GpuChiplet(u32),
    /// CPU chiplet `index` dies.
    CpuChiplet(u32),
    /// HBM stack `index` dies; the address space re-interleaves across the
    /// survivors.
    HbmStack(u32),
    /// Interposer ring segment `index` is cut (the duplex link between
    /// router `index` and its clockwise neighbor); traffic reroutes the
    /// long way around, and a second cut partitions the ring.
    InterposerLink(u32),
    /// External memory interface `index` is severed from the package
    /// (usually collateral of a ring partition): the capacity and
    /// bandwidth behind it are lost.
    ExternalInterface(u32),
    /// The SerDes link feeding external module `depth` on chain
    /// `interface` fails; accesses past it fail unless redundancy covers
    /// the hop.
    SerdesLink {
        /// External interface (chain) index.
        interface: u32,
        /// Module position along the chain, zero-based from the package.
        depth: u32,
    },
    /// Thermal throttle: the GPU clock drops by `percent` percent for the
    /// rest of the campaign.
    ThermalThrottle {
        /// Clock reduction in percent (0..100).
        percent: u32,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::GpuChiplet(i) => write!(f, "GPU chiplet {i}"),
            FaultKind::CpuChiplet(i) => write!(f, "CPU chiplet {i}"),
            FaultKind::HbmStack(i) => write!(f, "HBM stack {i}"),
            FaultKind::InterposerLink(i) => write!(f, "interposer segment {i}"),
            FaultKind::ExternalInterface(i) => write!(f, "external interface {i}"),
            FaultKind::SerdesLink { interface, depth } => {
                write!(f, "SerDes link {interface}.{depth}")
            }
            FaultKind::ThermalThrottle { percent } => {
                write!(f, "thermal throttle -{percent}% clock")
            }
        }
    }
}

/// A failure at a simulated time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent<K = FaultKind> {
    /// Simulated time of the failure, in microseconds.
    pub at_us: f64,
    /// What fails.
    pub kind: K,
}

/// A deterministic, seeded schedule of failures.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan<K = FaultKind> {
    /// Seed the plan was sampled from (recorded for reporting; explicit
    /// plans keep whatever seed they were created with).
    pub seed: u64,
    events: Vec<FaultEvent<K>>,
}

impl<K> Default for FaultPlan<K> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<K> FaultPlan<K> {
    /// An empty plan carrying `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds one failure, keeping events ordered by time (ties keep
    /// insertion order).
    pub fn push(&mut self, at_us: f64, kind: K) -> &mut Self {
        let pos = self
            .events
            .iter()
            .position(|e| e.at_us > at_us)
            .unwrap_or(self.events.len());
        self.events.insert(pos, FaultEvent { at_us, kind });
        self
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[FaultEvent<K>] {
        &self.events
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl FaultPlan {
    /// Samples the acceptance campaign on the paper's 8-GPU / 8-CPU /
    /// 8-stack ring package: one GPU chiplet, one HBM stack (never the one
    /// the chiplet orphans), and two distinct interposer ring segments,
    /// with victims and times fixed entirely by `seed`.
    pub fn standard_campaign(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::new(seed);

        let gpu = (rng.next_u64() % 8) as u32;
        // The chiplet takes HbmStack(gpu) down with it; aim the direct
        // stack fault elsewhere so the campaign kills two distinct stacks.
        let stack = {
            let r = (rng.next_u64() % 7) as u32;
            if r >= gpu {
                r + 1
            } else {
                r
            }
        };
        // Two distinct segments of the 6-router ring. Pairs that would
        // strand both CPU clusters in a minority arc ({1,3}, {0,3},
        // {1,4} on the G G | C C | G G floorplan) are redrawn: the
        // cascade would have to write off every CPU chiplet, and the
        // node cannot run without a host.
        let fatal = |a: u32, b: u32| {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            matches!((lo, hi), (1, 3) | (0, 3) | (1, 4))
        };
        let (seg_a, seg_b) = loop {
            let a = (rng.next_u64() % 6) as u32;
            let b = (rng.next_u64() % 6) as u32;
            if a != b && !fatal(a, b) {
                break (a, b);
            }
        };

        let mut t = 0.0;
        let mut advance = |rng: &mut SplitMix64| {
            t += 60.0 + (rng.next_u64() % 120) as f64;
            t
        };
        plan.push(advance(&mut rng), FaultKind::GpuChiplet(gpu));
        plan.push(advance(&mut rng), FaultKind::HbmStack(stack));
        plan.push(advance(&mut rng), FaultKind::InterposerLink(seg_a));
        plan.push(advance(&mut rng), FaultKind::InterposerLink(seg_b));
        plan
    }

    /// Samples the minimal cross-product campaign on the 8-GPU package:
    /// exactly one GPU chiplet dies (taking its HBM stack as collateral),
    /// with the victim and time fixed entirely by `seed`. This is the
    /// fault leg of sweep x fault studies: small enough to run against
    /// any design point, severe enough to exercise every cascade path.
    pub fn single_chiplet_loss(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::new(seed);
        let gpu = (rng.next_u64() % 8) as u32;
        let at = 60.0 + (rng.next_u64() % 120) as f64;
        plan.push(at, FaultKind::GpuChiplet(gpu));
        plan
    }
}

impl<K: fmt::Display> fmt::Display for FaultPlan<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault plan (seed {:#x}, {} events)",
            self.seed,
            self.len()
        )?;
        for e in &self.events {
            writeln!(f, "  t={:7.1} us  {}", e.at_us, e.kind)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_time_ordered() {
        let mut plan = FaultPlan::new(7);
        plan.push(30.0, FaultKind::GpuChiplet(1))
            .push(10.0, FaultKind::HbmStack(2))
            .push(20.0, FaultKind::InterposerLink(0));
        let times: Vec<f64> = plan.events().iter().map(|e| e.at_us).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn standard_campaign_is_deterministic_and_well_formed() {
        for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
            let a = FaultPlan::standard_campaign(seed);
            let b = FaultPlan::standard_campaign(seed);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert_eq!(a.len(), 4);

            let mut gpus = Vec::new();
            let mut stacks = Vec::new();
            let mut segments = Vec::new();
            for e in a.events() {
                match e.kind {
                    FaultKind::GpuChiplet(i) => gpus.push(i),
                    FaultKind::HbmStack(i) => stacks.push(i),
                    FaultKind::InterposerLink(i) => segments.push(i),
                    other => panic!("unexpected fault {other}"),
                }
            }
            assert_eq!(gpus.len(), 1);
            assert_eq!(stacks.len(), 1);
            assert_eq!(segments.len(), 2);
            // The direct stack kill never aims at the chiplet's own stack,
            // and the two ring cuts are distinct.
            assert_ne!(gpus[0], stacks[0]);
            assert_ne!(segments[0], segments[1]);
            assert!(segments.iter().all(|&s| s < 6));
        }
    }

    #[test]
    fn single_chiplet_loss_is_seeded_and_minimal() {
        for seed in [0u64, 9, 0xC0FFEE] {
            let a = FaultPlan::single_chiplet_loss(seed);
            assert_eq!(a, FaultPlan::single_chiplet_loss(seed));
            assert_eq!(a.len(), 1);
            assert!(matches!(a.events()[0].kind, FaultKind::GpuChiplet(i) if i < 8));
            assert!(a.events()[0].at_us >= 60.0);
        }
        assert_ne!(
            FaultPlan::single_chiplet_loss(1),
            FaultPlan::single_chiplet_loss(2)
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            FaultPlan::standard_campaign(1),
            FaultPlan::standard_campaign(2)
        );
    }

    #[test]
    fn display_names_every_fault() {
        let mut plan = FaultPlan::new(3);
        plan.push(
            1.0,
            FaultKind::SerdesLink {
                interface: 2,
                depth: 1,
            },
        )
        .push(2.0, FaultKind::ThermalThrottle { percent: 15 })
        .push(3.0, FaultKind::CpuChiplet(4));
        let text = plan.to_string();
        assert!(text.contains("SerDes link 2.1"));
        assert!(text.contains("thermal throttle -15% clock"));
        assert!(text.contains("CPU chiplet 4"));
    }
}
