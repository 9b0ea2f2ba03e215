//! Node-level fault plans for inter-node (fabric) campaigns.
//!
//! The intra-node [`FaultPlan`] schedules die failures inside one EHP
//! package. A [`NodeFaultPlan`] is the same plan type one level up:
//! whole EHP nodes drop out of the machine, nodes turn into stragglers,
//! and inter-node routes lose bandwidth. The two levels compose — a
//! straggler's slowdown factor is *derived* by the fabric layer from an
//! intra-node chiplet-loss campaign on that node, so the package-level
//! and cabinet-level fault models share one cause.
//!
//! Plans are sampled from a seed with
//! [`NodeFaultPlan::scaleout_campaign`] and are deterministic: the same
//! seed yields the same victims and times, byte for byte.

use core::fmt;

use ena_testkit::rng::SplitMix64;

use crate::plan::{FaultEvent, FaultPlan};

/// One injectable node-level failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// EHP node `index` drops out of the machine: its work redistributes
    /// over the survivors and the fabric routes around it.
    NodeLoss(u32),
    /// EHP node `index` becomes a straggler. The slowdown factor is not
    /// stored here: the fabric layer derives it from an intra-node
    /// chiplet-loss campaign seeded by the plan seed and the node index,
    /// so the node-level symptom has a package-level cause.
    Straggler(u32),
    /// Every physical link on the current route between EHP nodes `a`
    /// and `b` loses `percent` percent of its bandwidth — a sick cable
    /// somewhere along the path, modeled without naming the exact hop so
    /// the fault is meaningful under every topology.
    LinkDegradation {
        /// Route endpoint (EHP node index).
        a: u32,
        /// Route endpoint (EHP node index).
        b: u32,
        /// Bandwidth reduction in percent (0..100).
        percent: u32,
    },
}

impl fmt::Display for NodeFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeFaultKind::NodeLoss(i) => write!(f, "node {i} lost"),
            NodeFaultKind::Straggler(i) => write!(f, "node {i} straggles"),
            NodeFaultKind::LinkDegradation { a, b, percent } => {
                write!(f, "route {a}-{b} degraded -{percent}% bandwidth")
            }
        }
    }
}

/// A node-level failure at a simulated time.
pub type NodeFaultEvent = FaultEvent<NodeFaultKind>;

/// A deterministic, seeded schedule of node-level failures.
pub type NodeFaultPlan = FaultPlan<NodeFaultKind>;

impl NodeFaultPlan {
    /// Samples the scale-out acceptance campaign on a `nodes`-node
    /// machine: one node loss, one straggler, and one degraded route
    /// (50–90 % bandwidth cut), with all victims distinct and both
    /// victims and times fixed entirely by `seed`.
    ///
    /// Machines too small for distinct victims get a shorter plan: the
    /// route-degradation leg needs four distinct nodes, the straggler
    /// two, so a 2-node machine draws only the loss and the straggler.
    pub fn scaleout_campaign(seed: u64, nodes: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::new(seed);
        if nodes < 2 {
            return plan;
        }
        let n = u64::from(nodes);
        let mut used: Vec<u32> = Vec::new();
        let draw = |rng: &mut SplitMix64, used: &mut Vec<u32>| -> Option<u32> {
            if used.len() as u64 >= n {
                return None;
            }
            loop {
                let v = (rng.next_u64() % n) as u32;
                if !used.contains(&v) {
                    used.push(v);
                    return Some(v);
                }
            }
        };

        let loss = draw(&mut rng, &mut used);
        let straggler = draw(&mut rng, &mut used);
        let route = match (draw(&mut rng, &mut used), draw(&mut rng, &mut used)) {
            (Some(a), Some(b)) => Some((a, b, 50 + (rng.next_u64() % 41) as u32)),
            _ => None,
        };

        let mut t = 0.0;
        let mut advance = |rng: &mut SplitMix64| {
            t += 90.0 + (rng.next_u64() % 180) as f64;
            t
        };
        if let Some(v) = loss {
            plan.push(advance(&mut rng), NodeFaultKind::NodeLoss(v));
        }
        if let Some(v) = straggler {
            plan.push(advance(&mut rng), NodeFaultKind::Straggler(v));
        }
        if let Some((a, b, percent)) = route {
            plan.push(
                advance(&mut rng),
                NodeFaultKind::LinkDegradation { a, b, percent },
            );
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_time_ordered() {
        let mut plan = NodeFaultPlan::new(7);
        plan.push(30.0, NodeFaultKind::NodeLoss(1))
            .push(10.0, NodeFaultKind::Straggler(2))
            .push(
                20.0,
                NodeFaultKind::LinkDegradation {
                    a: 0,
                    b: 3,
                    percent: 50,
                },
            );
        let times: Vec<f64> = plan.events().iter().map(|e| e.at_us).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn scaleout_campaign_is_deterministic_and_well_formed() {
        for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
            let a = NodeFaultPlan::scaleout_campaign(seed, 64);
            let b = NodeFaultPlan::scaleout_campaign(seed, 64);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert_eq!(a.len(), 3);

            let mut victims = Vec::new();
            for e in a.events() {
                match e.kind {
                    NodeFaultKind::NodeLoss(i) | NodeFaultKind::Straggler(i) => victims.push(i),
                    NodeFaultKind::LinkDegradation { a, b, percent } => {
                        victims.push(a);
                        victims.push(b);
                        assert!((50..=90).contains(&percent), "percent = {percent}");
                    }
                }
            }
            assert_eq!(victims.len(), 4);
            assert!(victims.iter().all(|&v| v < 64));
            let mut sorted = victims.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "victims must be distinct: {victims:?}");
        }
    }

    #[test]
    fn tiny_machines_get_shorter_plans() {
        assert_eq!(NodeFaultPlan::scaleout_campaign(3, 1).len(), 0);
        let two = NodeFaultPlan::scaleout_campaign(3, 2);
        assert_eq!(two.len(), 2);
        let three = NodeFaultPlan::scaleout_campaign(3, 3);
        assert_eq!(three.len(), 2, "route leg needs four distinct nodes");
        assert_eq!(NodeFaultPlan::scaleout_campaign(3, 4).len(), 3);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            NodeFaultPlan::scaleout_campaign(1, 64),
            NodeFaultPlan::scaleout_campaign(2, 64)
        );
    }

    #[test]
    fn display_names_every_fault() {
        let mut plan = NodeFaultPlan::new(3);
        plan.push(1.0, NodeFaultKind::NodeLoss(17))
            .push(2.0, NodeFaultKind::Straggler(41))
            .push(
                3.0,
                NodeFaultKind::LinkDegradation {
                    a: 5,
                    b: 29,
                    percent: 62,
                },
            );
        let text = plan.to_string();
        assert!(text.contains("node 17 lost"));
        assert!(text.contains("node 41 straggles"));
        assert!(text.contains("route 5-29 degraded -62% bandwidth"));
    }
}
