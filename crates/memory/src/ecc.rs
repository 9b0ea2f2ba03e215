//! SECDED / chipkill ECC modeling for the in-package DRAM arrays.
//!
//! The resilience model in `ena-core` prices protection as a flat
//! coverage fraction; this module supplies the mechanistic counterpart
//! for trace-driven runs. A raw transient error hitting a protected
//! array lands in one of three buckets:
//!
//! - **corrected** — the common case; the access stream pays a small
//!   correction latency penalty and execution continues;
//! - **detected-uncorrectable** — ECC sees the corruption but cannot
//!   repair it; the recovery layer must roll back to the last durable
//!   checkpoint;
//! - **silent** — the corruption aliases into a valid codeword and
//!   escapes; nothing stalls, but the rate is tracked because silent
//!   data corruption is the number the exascale RAS budget actually
//!   cares about.
//!
//! Classification is deterministic: an [`EccModel`] draws from its own
//! seeded PRNG, so a fault schedule replays to byte-identical reports.

use core::fmt;

use ena_testkit::rng::{unit_f64, SplitMix64};

/// ECC scheme strength on the DRAM arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EccScheme {
    /// Single-error-correct, double-error-detect: corrects single-bit
    /// flips, detects (but cannot repair) double-bit flips.
    Secded,
    /// Chipkill-level symbol correction: survives a full-device failure,
    /// leaving an order of magnitude fewer uncorrectable or silent
    /// escapes than SECDED, at a higher correction latency.
    Chipkill,
}

impl EccScheme {
    /// Fraction of raw transient errors the scheme corrects in place.
    pub fn correct_fraction(self) -> f64 {
        match self {
            EccScheme::Secded => 0.990,
            EccScheme::Chipkill => 0.999,
        }
    }

    /// Fraction of raw errors detected but not correctable.
    pub fn detect_fraction(self) -> f64 {
        match self {
            EccScheme::Secded => 0.009,
            EccScheme::Chipkill => 0.0009,
        }
    }

    /// Fraction of raw errors that escape silently (the remainder).
    pub fn silent_fraction(self) -> f64 {
        1.0 - self.correct_fraction() - self.detect_fraction()
    }

    /// Latency a corrected error charges to the access stream, in DRAM
    /// cycles. Chipkill reconstructs a whole symbol, so it pays more per
    /// correction than SECDED's syndrome fix-up.
    pub fn correction_penalty_cycles(self) -> u64 {
        match self {
            EccScheme::Secded => 6,
            EccScheme::Chipkill => 24,
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            EccScheme::Secded => "secded",
            EccScheme::Chipkill => "chipkill",
        }
    }
}

impl fmt::Display for EccScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What ECC made of one raw transient error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EccOutcome {
    /// Corrected in place; the access stream pays the correction penalty.
    Corrected,
    /// Detected but uncorrectable; the recovery layer must roll back.
    DetectedUncorrectable,
    /// Escaped undetected (silent data corruption).
    Silent,
}

impl fmt::Display for EccOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EccOutcome::Corrected => "corrected",
            EccOutcome::DetectedUncorrectable => "detected-uncorrectable",
            EccOutcome::Silent => "silent",
        })
    }
}

/// A seeded ECC classifier: same seed, same sequence of outcomes.
#[derive(Clone, Copy, Debug)]
pub struct EccModel {
    scheme: EccScheme,
    rng: SplitMix64,
}

impl EccModel {
    /// A classifier for `scheme`, deterministic from `seed`.
    pub fn new(scheme: EccScheme, seed: u64) -> Self {
        Self {
            scheme,
            rng: SplitMix64::new(seed),
        }
    }

    /// The scheme in force.
    pub fn scheme(&self) -> EccScheme {
        self.scheme
    }

    /// Classifies one raw transient error.
    pub fn classify(&mut self) -> EccOutcome {
        let u = unit_f64(self.rng.next_u64());
        if u < self.scheme.correct_fraction() {
            EccOutcome::Corrected
        } else if u < self.scheme.correct_fraction() + self.scheme.detect_fraction() {
            EccOutcome::DetectedUncorrectable
        } else {
            EccOutcome::Silent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_fractions_partition_the_unit_interval() {
        for scheme in [EccScheme::Secded, EccScheme::Chipkill] {
            let total =
                scheme.correct_fraction() + scheme.detect_fraction() + scheme.silent_fraction();
            assert!((total - 1.0).abs() < 1e-12, "{scheme}: {total}");
            assert!(scheme.silent_fraction() > 0.0);
        }
        // Chipkill is the stronger code on every axis except latency.
        assert!(EccScheme::Chipkill.silent_fraction() < EccScheme::Secded.silent_fraction());
        assert!(EccScheme::Chipkill.detect_fraction() < EccScheme::Secded.detect_fraction());
        assert!(
            EccScheme::Chipkill.correction_penalty_cycles()
                > EccScheme::Secded.correction_penalty_cycles()
        );
    }

    #[test]
    fn classification_is_deterministic_and_calibrated() {
        let mut a = EccModel::new(EccScheme::Secded, 0xE0C);
        let mut b = EccModel::new(EccScheme::Secded, 0xE0C);
        let draws: Vec<EccOutcome> = (0..256).map(|_| a.classify()).collect();
        let again: Vec<EccOutcome> = (0..256).map(|_| b.classify()).collect();
        assert_eq!(draws, again);

        let mut model = EccModel::new(EccScheme::Secded, 7);
        let mut corrected = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if model.classify() == EccOutcome::Corrected {
                corrected += 1;
            }
        }
        let fraction = corrected as f64 / f64::from(n);
        assert!(
            (fraction - EccScheme::Secded.correct_fraction()).abs() < 0.005,
            "corrected fraction {fraction}"
        );
    }

    #[test]
    fn chipkill_escapes_less_often_than_secded() {
        let n = 200_000;
        let escapes = |scheme: EccScheme| -> u64 {
            let mut model = EccModel::new(scheme, 11);
            (0..n)
                .filter(|_| model.classify() == EccOutcome::Silent)
                .count() as u64
        };
        assert!(escapes(EccScheme::Chipkill) < escapes(EccScheme::Secded));
    }
}
