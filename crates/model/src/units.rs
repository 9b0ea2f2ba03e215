//! Typed physical units used throughout the ENA toolkit.
//!
//! Architectural modeling mixes many `f64` quantities (watts, gigabytes,
//! megahertz, picojoules, ...). Wrapping each in a newtype ([C-NEWTYPE])
//! turns unit-confusion bugs into compile errors while staying zero-cost.
//!
//! All units are `Copy` value types with ordinary arithmetic where the
//! operation is dimensionally meaningful (e.g. `Watts + Watts`,
//! `Watts * f64`, `Joules / Seconds -> Watts`).
//!
//! ```
//! use ena_model::units::{Watts, Joules, Seconds};
//!
//! let energy = Joules::new(3.0);
//! let time = Seconds::new(1.5);
//! assert_eq!(energy / time, Watts::new(2.0));
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Defines an `f64`-backed unit newtype with arithmetic and formatting.
macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The zero value of this unit.
            pub const ZERO: Self = Self(0.0);

            /// Returns the underlying raw value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `self` clamped to `[lo, hi]`.
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns true if the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// Electrical power in watts.
    Watts,
    "W"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Energy in picojoules (convenient for per-bit/per-access costs).
    Picojoules,
    "pJ"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
unit!(
    /// Clock frequency in megahertz.
    Megahertz,
    "MHz"
);
unit!(
    /// Memory/interconnect bandwidth in gigabytes per second.
    GigabytesPerSec,
    "GB/s"
);
unit!(
    /// Storage capacity in gigabytes.
    Gigabytes,
    "GB"
);
unit!(
    /// Compute throughput in double-precision gigaflops (1e9 FLOP/s).
    Gigaflops,
    "GFLOP/s"
);
unit!(
    /// Temperature in degrees Celsius.
    Celsius,
    "degC"
);
unit!(
    /// Supply voltage in volts.
    Volts,
    "V"
);
unit!(
    /// Physical distance in millimeters (interconnect lengths, die sizes).
    Millimeters,
    "mm"
);
unit!(
    /// Silicon area in square millimeters.
    SquareMillimeters,
    "mm^2"
);
unit!(
    /// Time in microseconds (inter-node link latencies, collective
    /// rounds, fault-injection timestamps).
    Microseconds,
    "us"
);

impl Megahertz {
    /// Cycles per second.
    pub fn hertz(self) -> f64 {
        self.value() * 1e6
    }

    /// Converts to gigahertz.
    pub fn gigahertz(self) -> f64 {
        self.value() * 1e-3
    }
}

impl GigabytesPerSec {
    /// Constructs a bandwidth from terabytes per second.
    pub const fn from_terabytes_per_sec(tbps: f64) -> Self {
        Self::new(tbps * 1000.0)
    }

    /// Bandwidth in terabytes per second.
    pub fn terabytes_per_sec(self) -> f64 {
        self.value() / 1000.0
    }

    /// Bytes moved per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.value() * 1e9
    }
}

impl Gigaflops {
    /// Constructs a throughput from teraflops.
    pub const fn from_teraflops(tf: f64) -> Self {
        Self::new(tf * 1000.0)
    }

    /// Throughput in teraflops.
    pub fn teraflops(self) -> f64 {
        self.value() / 1000.0
    }
}

impl Watts {
    /// Energy consumed at this power over `time`.
    pub fn energy_over(self, time: Seconds) -> Joules {
        Joules::new(self.value() * time.value())
    }

    /// Converts to megawatts.
    pub fn megawatts(self) -> f64 {
        self.value() * 1e-6
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_dimensionally_consistent() {
        let p = Watts::new(10.0) + Watts::new(5.0);
        assert_eq!(p, Watts::new(15.0));
        assert_eq!(p * 2.0, Watts::new(30.0));
        assert_eq!(2.0 * p, Watts::new(30.0));
        assert_eq!(p / Watts::new(5.0), 3.0);
        assert_eq!(-p, Watts::new(-15.0));
    }

    #[test]
    fn energy_power_time_relations() {
        let e = Watts::new(100.0) * Seconds::new(2.0);
        assert_eq!(e, Joules::new(200.0));
        assert_eq!(e / Seconds::new(2.0), Watts::new(100.0));
        assert_eq!(Watts::new(100.0).energy_over(Seconds::new(2.0)), e);
    }

    #[test]
    fn frequency_conversions() {
        let f = Megahertz::new(1000.0);
        assert_eq!(f.hertz(), 1e9);
        assert_eq!(f.gigahertz(), 1.0);
    }

    #[test]
    fn bandwidth_conversions() {
        let bw = GigabytesPerSec::from_terabytes_per_sec(3.0);
        assert_eq!(bw.value(), 3000.0);
        assert_eq!(bw.terabytes_per_sec(), 3.0);
    }

    #[test]
    fn gigaflops_conversions() {
        let g = Gigaflops::from_teraflops(16.0);
        assert_eq!(g.value(), 16_000.0);
        assert_eq!(g.teraflops(), 16.0);
    }

    #[test]
    fn min_max_clamp() {
        let a = Celsius::new(80.0);
        let b = Celsius::new(85.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            Celsius::new(90.0).clamp(Celsius::new(0.0), b),
            Celsius::new(85.0)
        );
    }

    #[test]
    fn sum_of_units() {
        let total: Watts = [Watts::new(1.0), Watts::new(2.0), Watts::new(3.5)]
            .into_iter()
            .sum();
        assert_eq!(total, Watts::new(6.5));
    }

    #[test]
    fn display_includes_suffix_and_precision() {
        assert_eq!(format!("{:.1}", Watts::new(12.345)), "12.3 W");
        assert_eq!(format!("{}", Megahertz::new(1000.0)), "1000 MHz");
    }

    #[test]
    fn megawatt_conversion() {
        assert_eq!(Watts::new(20e6).megawatts(), 20.0);
    }
}
