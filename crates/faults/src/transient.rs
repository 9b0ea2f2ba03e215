//! Transient faults: MTBF-driven schedules and absorb-and-continue
//! campaigns.
//!
//! The permanent [`FaultPlan`](crate::plan::FaultPlan) models hardware
//! that *dies*; at exascale the dominant failure stream is hardware that
//! *glitches* — HBM bit flips, link CRC errors, agents that stop
//! responding — and the machine absorbs it with ECC, retransmit/backoff,
//! and checkpoint/restart. This module supplies that stream:
//!
//! - [`TransientSchedule::sample`] draws per-class exponential
//!   (MTBF-driven) arrivals from the deterministic PRNG. Raw HBM errors
//!   are classified through `ena-memory`'s seeded
//!   [`EccModel`](ena_memory::ecc::EccModel) at sampling time, so the
//!   schedule records what the ECC *made* of each error (corrected,
//!   detected-uncorrectable, or silent) and two processes with the same
//!   seed and rates produce byte-identical schedules
//!   ([`TransientSchedule::digest`]).
//! - [`TransientSchedule::merged_timeline`] composes a transient stream
//!   with a permanent plan into one time-ordered injection timeline.
//! - [`run_transient_campaign`] replays a schedule against an iterative
//!   bulk-synchronous application with periodic checkpoints: corrected
//!   errors charge the scheme's correction latency, CRC errors charge one
//!   bounded retransmit backoff, soft-hung agents stall for the retry
//!   policy's full watchdog timeout, and detected-uncorrectable errors
//!   roll the application back to its last durable checkpoint. The report
//!   proves no completed-and-checkpointed iteration is ever lost.

use core::fmt;

use ena_hsa::runtime::RetryPolicy;
use ena_memory::ecc::{EccModel, EccOutcome, EccScheme};
use ena_model::hash::StableHasher;
use ena_testkit::rng::{unit_f64, SplitMix64};

use crate::plan::{FaultEvent, FaultPlan};

/// One transient (self-healing or recoverable) fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransientFaultKind {
    /// A raw HBM error on `stack` that ECC corrected in place; the access
    /// stream pays the scheme's correction latency.
    CorrectableHbm {
        /// Victim HBM stack.
        stack: u32,
    },
    /// A raw HBM error on `stack` that ECC detected but could not repair;
    /// the application must roll back to its last checkpoint.
    UncorrectableHbm {
        /// Victim HBM stack.
        stack: u32,
    },
    /// A raw HBM error on `stack` that aliased into a valid codeword and
    /// escaped detection (silent data corruption — tracked, never
    /// stalled on).
    SilentHbm {
        /// Victim HBM stack.
        stack: u32,
    },
    /// A CRC failure on interposer link `link`; the flit is retransmitted
    /// after one bounded backoff.
    LinkCrcRetransmit {
        /// Victim link (interposer ring segment).
        link: u32,
    },
    /// Agent `agent` stops responding; the watchdog waits out the retry
    /// policy's bounded timeout, then re-dispatches its work.
    AgentSoftHang {
        /// Victim agent (GPU chiplet queue).
        agent: u32,
    },
}

impl TransientFaultKind {
    /// Stable tag for digesting (one byte per variant).
    fn digest_into(self, h: &mut StableHasher) {
        match self {
            TransientFaultKind::CorrectableHbm { stack } => {
                h.write_bytes(&[1]);
                h.write_u32(stack);
            }
            TransientFaultKind::UncorrectableHbm { stack } => {
                h.write_bytes(&[2]);
                h.write_u32(stack);
            }
            TransientFaultKind::SilentHbm { stack } => {
                h.write_bytes(&[3]);
                h.write_u32(stack);
            }
            TransientFaultKind::LinkCrcRetransmit { link } => {
                h.write_bytes(&[4]);
                h.write_u32(link);
            }
            TransientFaultKind::AgentSoftHang { agent } => {
                h.write_bytes(&[5]);
                h.write_u32(agent);
            }
        }
    }
}

impl fmt::Display for TransientFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TransientFaultKind::CorrectableHbm { stack } => {
                write!(f, "correctable HBM error, stack {stack}")
            }
            TransientFaultKind::UncorrectableHbm { stack } => {
                write!(f, "uncorrectable HBM error, stack {stack}")
            }
            TransientFaultKind::SilentHbm { stack } => {
                write!(f, "silent HBM corruption, stack {stack}")
            }
            TransientFaultKind::LinkCrcRetransmit { link } => {
                write!(f, "CRC retransmit, link {link}")
            }
            TransientFaultKind::AgentSoftHang { agent } => {
                write!(f, "soft hang, agent {agent}")
            }
        }
    }
}

/// A transient fault at a simulated wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransientEvent {
    /// Arrival time, in microseconds.
    pub at_us: f64,
    /// What glitched.
    pub kind: TransientFaultKind,
}

/// Per-class mean-time-between-faults, in simulated microseconds.
///
/// Raw HBM errors arrive at `hbm_mtbf_us` and are split into
/// correctable / uncorrectable / silent by `scheme` at sampling time;
/// CRC errors and soft hangs have their own arrival processes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransientRates {
    /// ECC scheme protecting the HBM arrays.
    pub scheme: EccScheme,
    /// MTBF of raw (pre-ECC) HBM errors, us.
    pub hbm_mtbf_us: f64,
    /// MTBF of link CRC failures, us.
    pub crc_mtbf_us: f64,
    /// MTBF of agent soft-hangs, us.
    pub hang_mtbf_us: f64,
}

impl TransientRates {
    /// The acceptance rates: SECDED-protected HBM glitching every 400 us
    /// raw (so detected-uncorrectable errors — the rollback trigger —
    /// arrive a few times per standard campaign), CRC retransmits every
    /// 2 ms, soft hangs every 20 ms.
    pub fn standard() -> Self {
        Self {
            scheme: EccScheme::Secded,
            hbm_mtbf_us: 400.0,
            crc_mtbf_us: 2_000.0,
            hang_mtbf_us: 20_000.0,
        }
    }

    /// The same class mix with every MTBF multiplied by `factor`
    /// (`factor < 1` means *more* faults). Used by the monotonicity
    /// properties.
    pub fn with_mtbf_scale(self, factor: f64) -> Self {
        Self {
            scheme: self.scheme,
            hbm_mtbf_us: self.hbm_mtbf_us * factor,
            crc_mtbf_us: self.crc_mtbf_us * factor,
            hang_mtbf_us: self.hang_mtbf_us * factor,
        }
    }
}

/// One exponential inter-arrival with mean `mtbf_us`.
fn exponential(rng: &mut SplitMix64, mtbf_us: f64) -> f64 {
    -mtbf_us * unit_f64(rng.next_u64()).max(1e-18).ln()
}

/// A deterministic, seeded schedule of transient faults over a horizon.
#[derive(Clone, Debug, PartialEq)]
pub struct TransientSchedule {
    /// Seed the schedule was sampled from.
    pub seed: u64,
    /// The rates it was sampled at.
    pub rates: TransientRates,
    /// Sampling horizon, us.
    pub horizon_us: f64,
    events: Vec<TransientEvent>,
}

impl TransientSchedule {
    /// Samples the full schedule: per-class exponential arrivals over
    /// `[0, horizon_us)`, merged into one time-ordered stream. Victims
    /// are drawn from the paper's 8-stack / 6-segment / 8-agent package.
    /// Entirely determined by `(seed, rates, horizon_us)`.
    pub fn sample(seed: u64, rates: TransientRates, horizon_us: f64) -> Self {
        let mut events = Vec::new();

        // Raw HBM errors, classified through the seeded ECC model the
        // memory system uses, so the schedule records the post-ECC kind.
        let mut rng = SplitMix64::new(seed ^ 0x4842_4D00);
        let mut ecc = EccModel::new(rates.scheme, seed ^ 0x0ECC_0DE5);
        let mut t = exponential(&mut rng, rates.hbm_mtbf_us);
        while t < horizon_us {
            let stack = (rng.next_u64() % 8) as u32;
            let kind = match ecc.classify() {
                EccOutcome::Corrected => TransientFaultKind::CorrectableHbm { stack },
                EccOutcome::DetectedUncorrectable => TransientFaultKind::UncorrectableHbm { stack },
                EccOutcome::Silent => TransientFaultKind::SilentHbm { stack },
            };
            events.push(TransientEvent { at_us: t, kind });
            t += exponential(&mut rng, rates.hbm_mtbf_us);
        }

        // Link CRC failures.
        let mut rng = SplitMix64::new(seed ^ 0x4352_4300);
        let mut t = exponential(&mut rng, rates.crc_mtbf_us);
        while t < horizon_us {
            let link = (rng.next_u64() % 6) as u32;
            events.push(TransientEvent {
                at_us: t,
                kind: TransientFaultKind::LinkCrcRetransmit { link },
            });
            t += exponential(&mut rng, rates.crc_mtbf_us);
        }

        // Agent soft-hangs.
        let mut rng = SplitMix64::new(seed ^ 0x4841_4E47);
        let mut t = exponential(&mut rng, rates.hang_mtbf_us);
        while t < horizon_us {
            let agent = (rng.next_u64() % 8) as u32;
            events.push(TransientEvent {
                at_us: t,
                kind: TransientFaultKind::AgentSoftHang { agent },
            });
            t += exponential(&mut rng, rates.hang_mtbf_us);
        }

        // Stable merge: ties keep class order (HBM, CRC, hang).
        events.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
        Self {
            seed,
            rates,
            horizon_us,
            events,
        }
    }

    /// The sampled events, in time order.
    pub fn events(&self) -> &[TransientEvent] {
        &self.events
    }

    /// Number of sampled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing glitches over the horizon.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A stable structural digest of the whole schedule (seed, rates,
    /// horizon, every event's time bits and kind). Two processes sampling
    /// the same inputs must agree on this value exactly.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.seed);
        h.write_str(self.rates.scheme.label());
        h.write_f64(self.rates.hbm_mtbf_us);
        h.write_f64(self.rates.crc_mtbf_us);
        h.write_f64(self.rates.hang_mtbf_us);
        h.write_f64(self.horizon_us);
        h.write_usize(self.events.len());
        for e in &self.events {
            h.write_f64(e.at_us);
            e.kind.digest_into(&mut h);
        }
        h.finish()
    }

    /// Composes this transient stream with a permanent plan into one
    /// time-ordered timeline (ties put the permanent fault first — dead
    /// hardware cannot glitch).
    pub fn merged_timeline(&self, plan: &FaultPlan) -> Vec<TimelineEvent> {
        let mut merged = Vec::with_capacity(self.events.len() + plan.len());
        let mut perm = plan.events().iter().peekable();
        let mut trans = self.events.iter().peekable();
        loop {
            match (perm.peek(), trans.peek()) {
                (Some(&&p), Some(&&t)) => {
                    if p.at_us <= t.at_us {
                        merged.push(TimelineEvent::Permanent(p));
                        perm.next();
                    } else {
                        merged.push(TimelineEvent::Transient(t));
                        trans.next();
                    }
                }
                (Some(&&p), None) => {
                    merged.push(TimelineEvent::Permanent(p));
                    perm.next();
                }
                (None, Some(&&t)) => {
                    merged.push(TimelineEvent::Transient(t));
                    trans.next();
                }
                (None, None) => break,
            }
        }
        merged
    }
}

impl fmt::Display for TransientSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "transient schedule (seed {:#x}, {} scheme, {} events over {:.1} us)",
            self.seed,
            self.rates.scheme,
            self.len(),
            self.horizon_us
        )?;
        for e in &self.events {
            writeln!(f, "  t={:9.1} us  {}", e.at_us, e.kind)?;
        }
        Ok(())
    }
}

/// One entry of a composed permanent + transient timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimelineEvent {
    /// A permanent component death from the [`FaultPlan`].
    Permanent(FaultEvent),
    /// A transient glitch from the [`TransientSchedule`].
    Transient(TransientEvent),
}

impl TimelineEvent {
    /// The event's simulated time.
    pub fn at_us(&self) -> f64 {
        match self {
            TimelineEvent::Permanent(e) => e.at_us,
            TimelineEvent::Transient(e) => e.at_us,
        }
    }
}

/// Everything needed to run one transient campaign.
///
/// The application model is an iterative bulk-synchronous solver:
/// `iterations` iterations of `iteration_us` each, a checkpoint of
/// `checkpoint_us` after every `checkpoint_every` completed iterations,
/// and a `restart_us` reload whenever an uncorrectable error forces a
/// rollback.
#[derive(Clone, Copy, Debug)]
pub struct TransientCampaignSpec {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Per-class fault rates.
    pub rates: TransientRates,
    /// Retry/backoff policy pricing retransmits and hang timeouts.
    pub retry: RetryPolicy,
    /// Iterations the application must complete.
    pub iterations: u64,
    /// Clean cost of one iteration, us.
    pub iteration_us: f64,
    /// Iterations between checkpoints.
    pub checkpoint_every: u64,
    /// Cost of writing one checkpoint, us.
    pub checkpoint_us: f64,
    /// Cost of reloading the last checkpoint after a rollback, us.
    pub restart_us: f64,
    /// DRAM clock (MHz) converting ECC correction cycles to time.
    pub dram_mhz: f64,
}

impl TransientCampaignSpec {
    /// The acceptance campaign: 400 x 200 us iterations under the
    /// standard rates, checkpointing every 25 iterations.
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            rates: TransientRates::standard(),
            retry: RetryPolicy::default(),
            iterations: 400,
            iteration_us: 200.0,
            checkpoint_every: 25,
            checkpoint_us: 40.0,
            restart_us: 60.0,
            dram_mhz: 1000.0,
        }
    }

    /// The schedule horizon the campaign samples over: generous enough
    /// that a heavily-faulted run cannot outlive its fault stream in any
    /// configuration the tests exercise.
    pub fn horizon_us(&self) -> f64 {
        4.0 * self.iterations as f64 * self.iteration_us
    }
}

/// Complete record of one transient campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct TransientReport {
    /// Schedule seed.
    pub seed: u64,
    /// ECC scheme in force.
    pub scheme: EccScheme,
    /// Iterations the application completed (always the full request).
    pub iterations: u64,
    /// Digest of the schedule the campaign replayed.
    pub schedule_digest: u64,
    /// Events sampled over the horizon.
    pub scheduled_events: usize,
    /// Events that arrived before the application finished.
    pub applied_events: usize,
    /// ECC-corrected HBM errors absorbed (latency only).
    pub corrected: u64,
    /// Detected-uncorrectable HBM errors (each forced a rollback).
    pub uncorrectable: u64,
    /// Silent escapes (tracked, never stalled on).
    pub silent: u64,
    /// Link CRC retransmits absorbed.
    pub crc_retransmits: u64,
    /// Agent soft-hangs waited out.
    pub soft_hangs: u64,
    /// Rollbacks taken (== `uncorrectable` applied).
    pub rollbacks: u64,
    /// Iterations re-executed because they post-dated the last
    /// checkpoint when a rollback hit.
    pub redone_iterations: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Durable (checkpointed) iteration counts, in commit order. The
    /// no-lost-work property: this log is non-decreasing, and execution
    /// never resumes below its latest entry.
    pub durable_log: Vec<u64>,
    /// Clean runtime with zero faults, us.
    pub ideal_us: f64,
    /// Achieved makespan, us.
    pub makespan_us: f64,
}

impl TransientReport {
    /// Achieved efficiency: clean runtime over faulted makespan.
    pub fn efficiency(&self) -> f64 {
        if self.makespan_us == 0.0 {
            1.0
        } else {
            self.ideal_us / self.makespan_us
        }
    }

    /// Renders the report as deterministic text (the golden-artifact and
    /// byte-identity format).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ENA transient-fault campaign");
        let _ = writeln!(out, "============================");
        let _ = writeln!(
            out,
            "seed {:#x} | {} ECC | {} iterations | schedule digest {:016x}",
            self.seed, self.scheme, self.iterations, self.schedule_digest
        );
        let _ = writeln!(
            out,
            "schedule: {} events sampled, {} applied before completion",
            self.scheduled_events, self.applied_events
        );
        let _ = writeln!(
            out,
            "absorbed: {} corrected HBM | {} CRC retransmits | {} soft hangs | {} silent escapes",
            self.corrected, self.crc_retransmits, self.soft_hangs, self.silent
        );
        let _ = writeln!(
            out,
            "recovery: {} uncorrectable -> {} rollbacks | {} iterations redone | {} checkpoints",
            self.uncorrectable, self.rollbacks, self.redone_iterations, self.checkpoints
        );
        let _ = writeln!(
            out,
            "makespan {:.1} us | ideal {:.1} us | efficiency {:.4}",
            self.makespan_us,
            self.ideal_us,
            self.efficiency()
        );
        out
    }
}

/// Replays a sampled [`TransientSchedule`] against the iterative
/// application and assembles the report.
///
/// Semantics: each iteration absorbs every event that arrives before it
/// retires. Corrected HBM errors stretch the iteration by the ECC
/// correction latency, CRC failures by one base retransmit backoff, and
/// soft hangs by the retry policy's full bounded timeout. A
/// detected-uncorrectable error aborts the iteration, discards everything
/// after the last checkpoint, pays the restart cost, and re-executes —
/// durable progress never regresses. Termination is guaranteed: the
/// schedule is finite, so a fault-saturated run eventually drains the
/// stream and finishes clean.
pub fn run_transient_campaign(spec: &TransientCampaignSpec) -> TransientReport {
    let schedule = TransientSchedule::sample(spec.seed, spec.rates, spec.horizon_us());
    let events = schedule.events();
    let penalty_us = spec.rates.scheme.correction_penalty_cycles() as f64 / spec.dram_mhz.max(1e-9);

    let mut clock = 0.0_f64;
    let mut completed = 0u64;
    let mut durable = 0u64;
    let mut since_checkpoint = 0u64;
    let mut idx = 0usize;

    let mut corrected = 0u64;
    let mut uncorrectable = 0u64;
    let mut silent = 0u64;
    let mut crc_retransmits = 0u64;
    let mut soft_hangs = 0u64;
    let mut rollbacks = 0u64;
    let mut redone_iterations = 0u64;
    let mut checkpoints = 0u64;
    let mut durable_log = Vec::new();

    while completed < spec.iterations {
        // Run one iteration, absorbing transient stalls as they arrive.
        let mut end = clock + spec.iteration_us;
        let mut rolled_back = false;
        while idx < events.len() && events[idx].at_us <= end {
            let event = events[idx];
            idx += 1;
            match event.kind {
                TransientFaultKind::CorrectableHbm { .. } => {
                    corrected += 1;
                    end += penalty_us;
                }
                TransientFaultKind::SilentHbm { .. } => silent += 1,
                TransientFaultKind::LinkCrcRetransmit { .. } => {
                    crc_retransmits += 1;
                    end += spec.retry.backoff_for(1);
                }
                TransientFaultKind::AgentSoftHang { .. } => {
                    soft_hangs += 1;
                    end += spec.retry.timeout_us();
                }
                TransientFaultKind::UncorrectableHbm { .. } => {
                    uncorrectable += 1;
                    rollbacks += 1;
                    redone_iterations += completed - durable;
                    completed = durable;
                    since_checkpoint = 0;
                    clock = clock.max(event.at_us) + spec.restart_us;
                    rolled_back = true;
                    break;
                }
            }
        }
        if rolled_back {
            continue;
        }
        clock = end;
        completed += 1;
        since_checkpoint += 1;
        if since_checkpoint == spec.checkpoint_every {
            clock += spec.checkpoint_us;
            durable = completed;
            since_checkpoint = 0;
            checkpoints += 1;
            durable_log.push(durable);
        }
    }
    // Completion is durable by definition: results are written out.
    if durable < completed {
        durable_log.push(completed);
    }

    TransientReport {
        seed: spec.seed,
        scheme: spec.rates.scheme,
        iterations: spec.iterations,
        schedule_digest: schedule.digest(),
        scheduled_events: events.len(),
        applied_events: idx,
        corrected,
        uncorrectable,
        silent,
        crc_retransmits,
        soft_hangs,
        rollbacks,
        redone_iterations,
        checkpoints,
        durable_log,
        ideal_us: spec.iterations as f64 * spec.iteration_us,
        makespan_us: clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;

    #[test]
    fn schedules_are_seeded_time_ordered_and_digest_stable() {
        let rates = TransientRates::standard();
        let a = TransientSchedule::sample(0xC0FFEE, rates, 100_000.0);
        let b = TransientSchedule::sample(0xC0FFEE, rates, 100_000.0);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert!(!a.is_empty());
        assert!(a.events().windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(a.events().iter().all(|e| e.at_us < 100_000.0));
        assert_ne!(
            a.digest(),
            TransientSchedule::sample(0xC0FFED, rates, 100_000.0).digest()
        );
    }

    #[test]
    fn class_counts_track_their_mtbfs() {
        let rates = TransientRates::standard();
        let horizon = 4_000_000.0;
        let schedule = TransientSchedule::sample(9, rates, horizon);
        let count = |pred: fn(&TransientFaultKind) -> bool| {
            schedule.events().iter().filter(|e| pred(&e.kind)).count() as f64
        };
        let hbm = count(|k| {
            matches!(
                k,
                TransientFaultKind::CorrectableHbm { .. }
                    | TransientFaultKind::UncorrectableHbm { .. }
                    | TransientFaultKind::SilentHbm { .. }
            )
        });
        let crc = count(|k| matches!(k, TransientFaultKind::LinkCrcRetransmit { .. }));
        let hang = count(|k| matches!(k, TransientFaultKind::AgentSoftHang { .. }));
        // Poisson counts: expect horizon/mtbf, within ~5 sigma.
        for (observed, mtbf) in [
            (hbm, rates.hbm_mtbf_us),
            (crc, rates.crc_mtbf_us),
            (hang, rates.hang_mtbf_us),
        ] {
            let expected = horizon / mtbf;
            assert!(
                (observed - expected).abs() < 5.0 * expected.sqrt(),
                "observed {observed} vs expected {expected}"
            );
        }
        // ECC split: the overwhelming majority of HBM errors correct.
        let correctable = count(|k| matches!(k, TransientFaultKind::CorrectableHbm { .. }));
        assert!(correctable / hbm > 0.97, "corrected {correctable} of {hbm}");
    }

    #[test]
    fn merged_timeline_interleaves_and_stays_ordered() {
        let plan = FaultPlan::standard_campaign(3);
        let schedule = TransientSchedule::sample(3, TransientRates::standard(), 1_000.0);
        let merged = schedule.merged_timeline(&plan);
        assert_eq!(merged.len(), plan.len() + schedule.len());
        assert!(merged.windows(2).all(|w| w[0].at_us() <= w[1].at_us()));
        assert!(merged
            .iter()
            .any(|e| matches!(e, TimelineEvent::Permanent(p)
                if matches!(p.kind, FaultKind::GpuChiplet(_)))));
        assert!(merged
            .iter()
            .any(|e| matches!(e, TimelineEvent::Transient(_))));
    }

    #[test]
    fn the_standard_campaign_finishes_and_accounts_every_event() {
        let report = run_transient_campaign(&TransientCampaignSpec::standard(0xC0FFEE));
        assert_eq!(report.iterations, 400);
        assert_eq!(
            report.corrected
                + report.uncorrectable
                + report.silent
                + report.crc_retransmits
                + report.soft_hangs,
            report.applied_events as u64
        );
        assert!(report.applied_events <= report.scheduled_events);
        assert_eq!(report.rollbacks, report.uncorrectable);
        assert!(report.makespan_us > report.ideal_us);
        let eff = report.efficiency();
        assert!(eff > 0.5 && eff < 1.0, "efficiency {eff}");
        // Durable progress is monotone and ends at full completion.
        assert!(report.durable_log.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.durable_log.last().copied(), Some(400));
    }

    #[test]
    fn same_seed_renders_byte_identical_reports() {
        let a = run_transient_campaign(&TransientCampaignSpec::standard(42)).render();
        let b = run_transient_campaign(&TransientCampaignSpec::standard(42)).render();
        assert_eq!(a, b);
        assert_ne!(
            a,
            run_transient_campaign(&TransientCampaignSpec::standard(43)).render()
        );
    }

    #[test]
    fn a_fault_free_campaign_runs_at_the_ideal_rate_plus_checkpoints() {
        let mut spec = TransientCampaignSpec::standard(1);
        // MTBFs far beyond the horizon: no events at all.
        spec.rates = spec.rates.with_mtbf_scale(1e9);
        let report = run_transient_campaign(&spec);
        assert_eq!(report.applied_events, 0);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(
            report.makespan_us,
            report.ideal_us + report.checkpoints as f64 * spec.checkpoint_us
        );
    }

    #[test]
    fn more_faults_never_help() {
        let base = TransientCampaignSpec::standard(0xBEEF);
        let calm = run_transient_campaign(&TransientCampaignSpec {
            rates: base.rates.with_mtbf_scale(8.0),
            ..base
        });
        let stormy = run_transient_campaign(&TransientCampaignSpec {
            rates: base.rates.with_mtbf_scale(0.5),
            ..base
        });
        assert!(
            stormy.efficiency() < calm.efficiency(),
            "stormy {} vs calm {}",
            stormy.efficiency(),
            calm.efficiency()
        );
    }
}
