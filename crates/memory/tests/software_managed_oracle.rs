//! The dense software-managed policy against the trees it replaced.
//!
//! `SoftwareManaged` gives each page a dense slot, keeps counts and
//! residency in vectors and ranks only the slots touched in an epoch.
//! The reference implementation below is the original: a `BTreeMap` of
//! epoch counts and a `BTreeSet` of resident pages, the whole map ranked
//! at every epoch boundary. The properties require the two to agree on
//! every access's placement and every epoch's migration count, over
//! random traces whose pages straddle 4096-page chunk boundaries and sit
//! in far-apart regions, the top of the address space included, at
//! capacities from zero to above the footprint and at epoch lengths of
//! one access, a few accesses and never.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use ena_memory::policy::{Placement, PlacementPolicy, SoftwareManaged, PAGE_BYTES};
use ena_testkit::prelude::*;

/// Orders two pages of equal epoch count.
type TieOrder = fn(&u64, &u64) -> Ordering;

/// The original `SoftwareManaged`, with the order of equal-count pages
/// as a parameter so that a mutated ranking can be shown to be caught.
struct TreePolicy {
    capacity_pages: usize,
    resident: BTreeSet<u64>,
    counts: BTreeMap<u64, u64>,
    cold_start: bool,
    tie: TieOrder,
}

impl TreePolicy {
    fn new(capacity_bytes: u64, tie: TieOrder) -> Self {
        Self {
            capacity_pages: (capacity_bytes / PAGE_BYTES) as usize,
            resident: BTreeSet::new(),
            counts: BTreeMap::new(),
            cold_start: true,
            tie,
        }
    }

    fn access(&mut self, addr: u64) -> Placement {
        let page = addr / PAGE_BYTES;
        *self.counts.entry(page).or_insert(0) += 1;
        if self.resident.contains(&page) {
            Placement::InPackage
        } else if self.cold_start && self.resident.len() < self.capacity_pages {
            self.resident.insert(page);
            Placement::InPackage
        } else {
            Placement::External
        }
    }

    fn end_epoch(&mut self) -> u64 {
        self.cold_start = false;
        let mut ranked: Vec<(u64, u64)> = std::mem::take(&mut self.counts).into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then((self.tie)(&a.0, &b.0)));
        let new_resident: BTreeSet<u64> = ranked
            .iter()
            .take(self.capacity_pages)
            .map(|&(page, _)| page)
            .collect();
        let migrations = new_resident.difference(&self.resident).count() as u64;
        self.resident = new_resident;
        migrations
    }
}

/// One random case: byte addresses, an in-package capacity in bytes and
/// an epoch length.
fn case(rng: &mut StdRng) -> (Vec<u64>, u64, u64) {
    let chunk = 4096u64;
    let top_page = u64::MAX / PAGE_BYTES;
    // Each region holds 24 pages, the first three straddling a chunk
    // boundary 12 pages in, the last ending at the top of the space.
    let regions = [0, chunk - 12, (1 << 30) + 7 * chunk - 12, top_page - 23];
    let used = &regions[..rng.random_range(1..=regions.len())];
    let addrs: Vec<u64> = (0..rng.random_range(0..400usize))
        .map(|_| {
            let page = used[rng.random_range(0..used.len())] + rng.random_range(0..24u64);
            page * PAGE_BYTES + rng.random_range(0..PAGE_BYTES)
        })
        .collect();
    let footprint = addrs
        .iter()
        .map(|a| a / PAGE_BYTES)
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let capacity =
        rng.random_range(0..=footprint + 2) * PAGE_BYTES + rng.random_range(0..PAGE_BYTES);
    let epoch = match rng.random_range(0..3) {
        0 => 1,
        1 => rng.random_range(2..20u64),
        _ => u64::MAX,
    };
    (addrs, capacity, epoch)
}

/// Replays case `seed` through the dense policy and the tree policy with
/// tie order `tie`; describes the first disagreement, if any.
fn first_disagreement(seed: u64, tie: TieOrder) -> Option<String> {
    let (addrs, capacity, epoch) = case(&mut StdRng::seed_from_u64(seed));
    let mut dense = SoftwareManaged::new(capacity);
    let mut tree = TreePolicy::new(capacity, tie);
    let mut since_epoch = 0u64;
    for (i, &addr) in addrs.iter().enumerate() {
        let (got, want) = (dense.access(addr, false), tree.access(addr));
        if got != want {
            return Some(format!("access {i} ({addr:#x}): {got:?} != {want:?}"));
        }
        since_epoch += 1;
        if since_epoch == epoch {
            let (got, want) = (dense.end_epoch(), tree.end_epoch());
            if got != want {
                return Some(format!(
                    "epoch after access {i}: {got} != {want} migrations"
                ));
            }
            since_epoch = 0;
        }
    }
    let (got, want) = (dense.end_epoch(), tree.end_epoch());
    if got != want {
        return Some(format!("final epoch: {got} != {want} migrations"));
    }
    let (got, want) = (dense.resident_pages(), tree.resident.len());
    (got != want).then(|| format!("resident pages: {got} != {want}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn software_managed_matches_the_trees(seed in 0..u64::MAX) {
        prop_assert_eq!(first_disagreement(seed, u64::cmp), None);
    }
}

/// The property has teeth: an oracle that ranks equal counts by
/// descending page instead of ascending disagrees with the policy.
#[test]
fn a_mutated_tie_order_is_caught() {
    let descending: TieOrder = |a, b| b.cmp(a);
    assert!((0..200).any(|seed| first_disagreement(seed, descending).is_some()));
}
