//! Wavefront programs: the instruction streams the timing model executes.
//!
//! A [`WavefrontProgram`] is a compact schedule of what one wavefront does:
//! issue compute for some cycles, issue memory requests, or wait for
//! outstanding requests to drain. Programs are either synthesized from a
//! [`KernelProfile`](ena_model::KernelProfile) ([`crate::synth`]) or built
//! by hand for microbenchmark-style tests.
//!
//! # Run-length storage
//!
//! A program is stored as runs: each entry is one op and how many times
//! it repeats back to back. [`WavefrontProgram::push`] and
//! [`FromIterator`] merge an op into the previous entry when the two are
//! equal, so adjacent runs always differ and every count is at least 1.
//! That canonical form makes derived equality the equality of the
//! expanded op sequences. A compute-bound kernel's long stretches of
//! identical `Compute` chunks cost one entry each instead of thousands
//! of ops; the simulator still consumes a run one op per issue.

/// One operation in a wavefront's instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Occupy the SIMD for `cycles`, retiring `flops` double-precision
    /// operations.
    Compute {
        /// Issue cycles consumed.
        cycles: u32,
        /// DP FLOPs retired.
        flops: u32,
    },
    /// Issue a non-blocking memory request for the line at `addr`.
    Load {
        /// Logical byte address.
        addr: u64,
    },
    /// Issue a non-blocking store for the line at `addr`.
    Store {
        /// Logical byte address.
        addr: u64,
    },
    /// Stall until at most `max_outstanding` requests remain in flight.
    Wait {
        /// Allowed in-flight requests after the wait.
        max_outstanding: u32,
    },
}

/// The instruction stream of one wavefront, stored run-length (see the
/// [module docs](self)).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WavefrontProgram {
    /// `(op, count)`: `op` repeated `count >= 1` times; adjacent ops differ.
    runs: Vec<(Op, u64)>,
}

impl WavefrontProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op (builder style), extending the last run if `op`
    /// equals it.
    pub fn push(mut self, op: Op) -> Self {
        match self.runs.last_mut() {
            Some((last, count)) if *last == op => *count += 1,
            _ => self.runs.push((op, 1)),
        }
        self
    }

    /// The operations in order, expanded from their runs.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.runs
            .iter()
            .flat_map(|&(op, count)| (0..count).map(move |_| op))
    }

    /// Total DP FLOPs the program retires.
    pub fn total_flops(&self) -> u64 {
        self.runs
            .iter()
            .map(|&(op, count)| match op {
                Op::Compute { flops, .. } => u64::from(flops) * count,
                _ => 0,
            })
            .sum()
    }

    /// Total memory requests the program issues.
    pub fn total_requests(&self) -> u64 {
        self.runs
            .iter()
            .filter(|(op, _)| matches!(op, Op::Load { .. } | Op::Store { .. }))
            .map(|&(_, count)| count)
            .sum()
    }

    /// Minimum issue cycles if memory were infinitely fast.
    pub fn compute_cycles(&self) -> u64 {
        self.runs
            .iter()
            .map(|&(op, count)| {
                let cycles = match op {
                    Op::Compute { cycles, .. } => u64::from(cycles),
                    Op::Load { .. } | Op::Store { .. } => 1,
                    Op::Wait { .. } => 0,
                };
                cycles * count
            })
            .sum()
    }

    /// A cursor positioned at the first op.
    pub(crate) fn into_cursor(mut self) -> Cursor {
        self.runs.reverse();
        Cursor {
            rev_runs: self.runs,
        }
    }
}

impl FromIterator<Op> for WavefrontProgram {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        iter.into_iter().fold(Self::new(), Self::push)
    }
}

/// A wavefront's position in its program: the simulator's view, which
/// consumes the current run one op per [`Cursor::advance`].
#[derive(Clone, Debug)]
pub(crate) struct Cursor {
    /// The runs not yet finished, last run first; the current run is at
    /// the end and its count is the number of its ops still to issue.
    rev_runs: Vec<(Op, u64)>,
}

impl Cursor {
    /// The op to issue next, or `None` once the program is finished.
    pub(crate) fn op(&self) -> Option<Op> {
        self.rev_runs.last().map(|&(op, _)| op)
    }

    /// Retires the current op.
    pub(crate) fn advance(&mut self) {
        if let Some((_, left)) = self.rev_runs.last_mut() {
            *left -= 1;
            if *left == 0 {
                self.rev_runs.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ena_testkit::prelude::*;

    #[test]
    fn accounting_sums_ops() {
        let p = WavefrontProgram::new()
            .push(Op::Compute {
                cycles: 4,
                flops: 128,
            })
            .push(Op::Load { addr: 0 })
            .push(Op::Load { addr: 64 })
            .push(Op::Wait { max_outstanding: 0 })
            .push(Op::Compute {
                cycles: 2,
                flops: 64,
            });
        assert_eq!(p.total_flops(), 192);
        assert_eq!(p.total_requests(), 2);
        assert_eq!(p.compute_cycles(), 4 + 1 + 1 + 2);
        assert_eq!(p.ops().count(), 5);
    }

    #[test]
    fn collects_from_iterator() {
        let p: WavefrontProgram = (0..3).map(|i| Op::Load { addr: i * 64 }).collect();
        assert_eq!(p.total_requests(), 3);
    }

    fn arbitrary_ops() -> impl Strategy<Value = Vec<Op>> {
        // Narrow value ranges so identical neighbours, and thus runs, are
        // common.
        ena_testkit::collection::vec(
            prop_oneof![
                (1u32..3, 0u32..3).prop_map(|(cycles, flops)| Op::Compute { cycles, flops }),
                (0u64..2).prop_map(|line| Op::Load { addr: line * 64 }),
                (0u64..2).prop_map(|line| Op::Store { addr: line * 64 }),
                (0u32..2).prop_map(|m| Op::Wait { max_outstanding: m }),
            ],
            0..80,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn run_length_storage_round_trips(ops in arbitrary_ops()) {
            let p: WavefrontProgram = ops.iter().copied().collect();
            prop_assert_eq!(p.ops().collect::<Vec<_>>(), ops.clone());
            prop_assert!(p.runs.iter().all(|&(_, count)| count >= 1));
            prop_assert!(p.runs.windows(2).all(|w| w[0].0 != w[1].0));

            let mut cursor = p.clone().into_cursor();
            let mut stepped = Vec::new();
            while let Some(op) = cursor.op() {
                stepped.push(op);
                cursor.advance();
            }
            prop_assert_eq!(&stepped, &ops);
            cursor.advance();
            prop_assert_eq!(cursor.op(), None);

            let flops: u64 = ops
                .iter()
                .map(|op| match op {
                    Op::Compute { flops, .. } => u64::from(*flops),
                    _ => 0,
                })
                .sum();
            let requests = ops
                .iter()
                .filter(|op| matches!(op, Op::Load { .. } | Op::Store { .. }))
                .count() as u64;
            let cycles: u64 = ops
                .iter()
                .map(|op| match op {
                    Op::Compute { cycles, .. } => u64::from(*cycles),
                    Op::Load { .. } | Op::Store { .. } => 1,
                    Op::Wait { .. } => 0,
                })
                .sum();
            prop_assert_eq!(p.total_flops(), flops);
            prop_assert_eq!(p.total_requests(), requests);
            prop_assert_eq!(p.compute_cycles(), cycles);
        }
    }
}
