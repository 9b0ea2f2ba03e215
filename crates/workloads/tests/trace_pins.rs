//! Pins every proxy app's trace at `RunConfig::small()`.
//!
//! The memory, NoC and ablation studies replay these traces, so an
//! optimization of a kernel or of the tracer must leave every stored
//! access, every statistic and every op count exactly where it was. The
//! literals were captured from the reference implementation; a mismatch
//! prints the whole observed row so a deliberate change can be re-pinned.
//!
//! XSBench's checksum is the one value re-pinned since: its cross sections
//! became an on-demand stream, which leaves its trace unchanged.

use ena_model::hash::StableHasher;
use ena_workloads::app::{KernelRun, RunConfig};
use ena_workloads::apps::all_apps;
use ena_workloads::trace::AccessKind;

/// One app's pinned observables.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    app: &'static str,
    /// FNV-1a over every stored `(addr, is_write)` pair, in order.
    digest: u64,
    stored: usize,
    len: u64,
    footprint_lines: u64,
    write_fraction_bits: u64,
    sequential_fraction_bits: u64,
    dp_flops: u64,
    int_ops: u64,
    checksum_bits: u64,
}

impl Pin {
    fn observe(app: &'static str, run: &KernelRun) -> Self {
        let mut h = StableHasher::new();
        for a in run.trace.accesses() {
            h.write_u64(a.addr);
            h.write_bool(a.kind == AccessKind::Write);
        }
        Self {
            app,
            digest: h.finish(),
            stored: run.trace.accesses().len(),
            len: run.trace.len(),
            footprint_lines: run.trace.footprint_lines(),
            write_fraction_bits: run.trace.write_fraction().to_bits(),
            sequential_fraction_bits: run.trace.sequential_fraction().to_bits(),
            dp_flops: run.counters.dp_flops,
            int_ops: run.counters.int_ops,
            checksum_bits: run.checksum.to_bits(),
        }
    }
}

const PINS: [Pin; 8] = [
    Pin {
        app: "MaxFlops",
        digest: 0xd849_c46a_41b0_38a5,
        stored: 16,
        len: 16,
        footprint_lines: 8,
        write_fraction_bits: 0x3fe0_0000_0000_0000,
        sequential_fraction_bits: 0x3fed_dddd_dddd_ddde,
        dp_flops: 4_194_304,
        int_ops: 0,
        checksum_bits: 0x4041_0275_ae01_72cd,
    },
    Pin {
        app: "CoMD",
        digest: 0x8366_8aa7_3de0_94ac,
        stored: 6_025,
        len: 6_025,
        footprint_lines: 1_867,
        write_fraction_bits: 0x3fe1_acf9_ab46_9345,
        sequential_fraction_bits: 0x3fc7_cc52_f419_d686,
        dp_flops: 4_126_456,
        int_ops: 0,
        checksum_bits: 0x4366_01d0_ab09_332b,
    },
    Pin {
        app: "CoMD-LJ",
        digest: 0x58f4_3614_23ae_f66d,
        stored: 2_496,
        len: 2_496,
        footprint_lines: 1_536,
        write_fraction_bits: 0x3fe3_b13b_13b1_3b14,
        sequential_fraction_bits: 0x3fd2_fb61_fceb_fdf3,
        dp_flops: 2_416_352,
        int_ops: 0,
        checksum_bits: 0x4356_01d0_ab09_332b,
    },
    Pin {
        app: "HPGMG",
        digest: 0xb6e4_dde6_9309_c54d,
        stored: 132,
        len: 132,
        footprint_lines: 96,
        write_fraction_bits: 0x3fd1_745d_1745_d174,
        sequential_fraction_bits: 0x3fcd_501f_4465_9e4a,
        dp_flops: 6_480,
        int_ops: 0,
        checksum_bits: 0x4013_67f6_8518_834f,
    },
    Pin {
        app: "LULESH",
        digest: 0xf914_74d2_45b4_8675,
        stored: 2_827,
        len: 2_827,
        footprint_lines: 1_188,
        write_fraction_bits: 0x3fd6_46d0_755c_1845,
        sequential_fraction_bits: 0x3fb9_5d4e_161a_7397,
        dp_flops: 75_264,
        int_ops: 0,
        checksum_bits: 0x3fd0_e236_44f9_695e,
    },
    Pin {
        app: "MiniAMR",
        digest: 0xea44_b300_7ecc_b809,
        stored: 22_376,
        len: 22_376,
        footprint_lines: 16_796,
        write_fraction_bits: 0x3fcf_eb7f_7f21_6840,
        sequential_fraction_bits: 0x3fd6_3df1_83e8_3f6e,
        dp_flops: 394_104,
        int_ops: 0,
        checksum_bits: 0x4053_3f7c_b3dd_099c,
    },
    Pin {
        app: "XSBench",
        digest: 0x415f_d9c4_d945_9765,
        stored: 200_000,
        len: 301_917,
        footprint_lines: 155_395,
        write_fraction_bits: 0x0000_0000_0000_0000,
        sequential_fraction_bits: 0x3fcb_4dfd_d292_6b21,
        dp_flops: 1_735_160,
        int_ops: 503_994,
        checksum_bits: 0x4140_2b5f_09c6_9c29,
    },
    Pin {
        app: "SNAP",
        digest: 0xa0fd_06c1_354a_da25,
        stored: 24_576,
        len: 24_576,
        footprint_lines: 2_048,
        write_fraction_bits: 0x3fe0_0000_0000_0000,
        sequential_fraction_bits: 0x3f85_2ae3_1d08_4d6b,
        dp_flops: 262_144,
        int_ops: 0,
        checksum_bits: 0x4030_4e74_ae5d_9b01,
    },
];

#[test]
fn every_app_reproduces_its_pinned_trace() {
    let apps = all_apps();
    assert_eq!(apps.len(), PINS.len());
    for (app, pin) in apps.iter().zip(&PINS) {
        let observed = Pin::observe(app.name(), &app.run(&RunConfig::small()));
        assert!(
            observed == *pin,
            "{} drifted from its pinned trace\nobserved: {observed:#x?}\npinned: {pin:#x?}",
            app.name()
        );
    }
}
