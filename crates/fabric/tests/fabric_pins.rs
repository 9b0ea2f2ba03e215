//! Pins collective compilation and both fabric sweeps bit for bit.
//!
//! `ena-fabric` compiles every collective against a concrete, possibly
//! degraded fabric: hop-minimal routes, per-channel loads, round timings
//! and, for the recovery analysis, CRC retransmit pricing. The multinode
//! and recovery sweeps score their points from those schedules. An
//! optimization of the route search or of the load accounting must leave
//! every route table digest, every schedule digest, every total's bits
//! and every sweep record where it was. The tables were captured from the
//! reference implementation; a mismatch prints the whole observed table
//! so a deliberate change can be re-pinned.

use std::fmt::Write as _;

use ena_fabric::{
    schedule, schedule_with_retransmits, CollectiveKind, FabricGraph, FabricKind, MultiNodeSpace,
    MultiNodeSweep, MultiNodeSweepSpec, RecoveryModel, RecoverySpace, RecoverySweep,
    RecoverySweepSpec, RetransmitModel, ScaleOutSpec,
};
use ena_model::config::EhpConfig;
use ena_sweep::CacheRecord;

/// Fleet sizes: both degenerate fabrics (2 and 3 nodes), a prime ring,
/// and the grid, multi-group and 64-node cabinet shapes.
const SIZES: [u32; 6] = [2, 3, 5, 8, 16, 64];

/// Application bytes per node for every pinned collective.
const PAYLOAD: f64 = 4e6;

/// Every pinned graph state, labelled: each topology at each size,
/// healthy and after one node loss, one physical link cut, or one
/// degraded round-trip route.
fn graphs() -> Vec<(String, FabricGraph)> {
    let mut out = Vec::new();
    for kind in FabricKind::ALL {
        for n in SIZES {
            let healthy = FabricGraph::build(kind, n).expect("n >= 2");
            let mut node_lost = healthy.clone();
            node_lost.fail_ehp(n / 2).expect("a live node");
            let mut link_cut = healthy.clone();
            let links = healthy.physical_links();
            let (a, b) = links[links.len() / 3];
            link_cut.fail_link_between(a, b).expect("vertices in range");
            let mut degraded = healthy.clone();
            degraded
                .degrade_route(0, n - 1, 50)
                .expect("a routable pair");
            for (state, graph) in [
                ("healthy", healthy),
                ("node-lost", node_lost),
                ("link-cut", link_cut),
                ("degraded", degraded),
            ] {
                out.push((format!("{kind} x{n} {state}"), graph));
            }
        }
    }
    out
}

/// One line per graph with its route table digest, then one per
/// collective: the plain schedule's digest and total bits, then the same
/// two under the standard retransmit model.
fn render_schedules() -> String {
    let retransmits = RetransmitModel::standard();
    let mut out = String::new();
    for (case, g) in graphs() {
        match g.route_table_digest() {
            Ok(routes) => writeln!(out, "{case} routes {routes:016x}").unwrap(),
            Err(e) => writeln!(out, "{case} routes error: {e}").unwrap(),
        }
        for kind in CollectiveKind::ALL {
            let plain = schedule(&g, kind, PAYLOAD);
            let priced = schedule_with_retransmits(&g, kind, PAYLOAD, &retransmits);
            match (plain, priced) {
                (Ok(plain), Ok(priced)) => writeln!(
                    out,
                    "{case} {kind} {:016x} {:016x} {:016x} {:016x}",
                    plain.digest(),
                    plain.total.value().to_bits(),
                    priced.digest(),
                    priced.total.value().to_bits(),
                ),
                (plain, priced) => writeln!(
                    out,
                    "{case} {kind} error: {} / {}",
                    plain.err().map_or(String::new(), |e| e.to_string()),
                    priced.err().map_or(String::new(), |e| e.to_string()),
                ),
            }
            .unwrap();
        }
    }
    out
}

/// Both fabric sweeps on the benchmark's fixture (CoMD, a checkpoint
/// cost of 3 minutes on the node-assessed MTBF): every record in its
/// cache encoding, which carries each field's bits, then the frontier.
fn render_sweeps() -> String {
    let multinode =
        MultiNodeSweepSpec::new(MultiNodeSpace::cabinet(), ScaleOutSpec::standard("CoMD"));
    let model = RecoveryModel::from_node_assessment(&EhpConfig::paper_baseline(), "CoMD", 3.0)
        .expect("CoMD has a profile");
    let recovery = RecoverySweepSpec::new(
        RecoverySpace::standard(),
        ScaleOutSpec::standard("CoMD"),
        model,
    );
    let m = MultiNodeSweep::new().run(&multinode).expect("clean sweep");
    let r = RecoverySweep::new().run(&recovery).expect("clean sweep");
    let mut out = String::new();
    for record in &m.records {
        writeln!(out, "multinode {}", record.encode()).unwrap();
    }
    writeln!(out, "multinode frontier {:?}", m.frontier).unwrap();
    for record in &r.records {
        writeln!(out, "recovery {}", record.encode()).unwrap();
    }
    writeln!(out, "recovery frontier {:?}", r.frontier).unwrap();
    out
}

/// Panics with every differing line and the whole observed table unless
/// `observed` equals `pinned`.
fn assert_pinned(what: &str, observed: &str, pinned: &str) {
    if observed == pinned {
        return;
    }
    let mut drift = String::new();
    for (i, (o, p)) in observed.lines().zip(pinned.lines()).enumerate() {
        if o != p {
            writeln!(drift, "line {}\n  observed: {o}\n  pinned:   {p}", i + 1).unwrap();
        }
    }
    panic!(
        "{what} drifted from the pins ({} observed lines, {} pinned)\n{drift}\
         observed table:\n{observed}",
        observed.lines().count(),
        pinned.lines().count(),
    );
}

#[test]
fn every_collective_reproduces_its_pinned_schedule() {
    assert_pinned("collective schedules", &render_schedules(), SCHEDULE_PINS);
}

#[test]
fn both_fabric_sweeps_reproduce_their_pinned_records() {
    assert_pinned("fabric sweeps", &render_sweeps(), SWEEP_PINS);
}

const SCHEDULE_PINS: &str = "\
fat-tree x2 healthy routes aa7a90ba02d05353
fat-tree x2 healthy all-reduce-ring 7001715a0cfac9e8 40555bbbbbbbbbbb 9fbd89d7cbc90de4 40555c650be17db7
fat-tree x2 healthy halo-exchange d2afcc78993226d2 4065188888888888 8889a5daadb2e545 406519ba67b75e36
fat-tree x2 healthy all-to-all 782900f6efbf5e03 4055188888888888 1d0e7663a6d5a9f8 405519ba67b75e36
fat-tree x2 node-lost routes 68c15407ada1b9b7
fat-tree x2 node-lost all-reduce-ring cd04701c874b8b55 8000000000000000 cd04701c874b8b55 8000000000000000
fat-tree x2 node-lost halo-exchange 76436b7a5a198e64 8000000000000000 76436b7a5a198e64 8000000000000000
fat-tree x2 node-lost all-to-all 7a867960e1af8537 8000000000000000 7a867960e1af8537 8000000000000000
fat-tree x2 link-cut routes 3dd11cf622f50f89
fat-tree x2 link-cut all-reduce-ring ce518f6e157c6668 40555bbbbbbbbbbb 9ba9882e17913364 40555c650be17db7
fat-tree x2 link-cut halo-exchange 3a349a5199a899d2 4065188888888888 a1c3060514fad645 406519ba67b75e36
fat-tree x2 link-cut all-to-all 685d1bebf25af303 4055188888888888 54ddbdbc598a67f8 405519ba67b75e36
fat-tree x2 degraded routes 8f85c104922dfe93
fat-tree x2 degraded all-reduce-ring c74a9a65d6b8ae92 4065188888888888 76dabfe7c6c00e8e 4065192175bf61ee
fat-tree x2 degraded halo-exchange 00984c91db431b02 4074f6eeeeeeeeef 60938f4fae5aa615 4074f8106a8dba7b
fat-tree x2 degraded all-to-all 61087a8bd021157f 4064f6eeeeeeeeef 603fe2f4ac173ce8 4064f8106a8dba7b
fat-tree x3 healthy routes b5a13d3ea4b56890
fat-tree x3 healthy all-reduce-ring 6b12959f6b97b91b 405cd3e93e93e93e 3ef7c4c451e79d1c 405cd48e4e76118e
fat-tree x3 healthy halo-exchange 6c48960a70da2afe 4065188888888888 f1bf3c6eadd439d9 406519ba67b75e36
fat-tree x3 healthy all-to-all 405a862bbff4279f 4055188888888888 1e1b4630a4c0c5a4 405519ba67b75e36
fat-tree x3 node-lost routes c2c37f23a0f2caa8
fat-tree x3 node-lost all-reduce-ring bea7519257cdec88 40555bbbbbbbbbbb 4ba27d5ec04c4004 40555c650be17db7
fat-tree x3 node-lost halo-exchange 4a18fc1b2964af8a 4065188888888888 b6b1b7da32cf877d 406519ba67b75e36
fat-tree x3 node-lost all-to-all 87b4c12c44e84eeb 4055188888888888 18dcde1961349330 405519ba67b75e36
fat-tree x3 link-cut routes 275bcfc558992462
fat-tree x3 link-cut all-reduce-ring 6b12959f6b97b91b 405cd3e93e93e93e 3ef7c4c451e79d1c 405cd48e4e76118e
fat-tree x3 link-cut halo-exchange 6c48960a70da2afe 4065188888888888 f1bf3c6eadd439d9 406519ba67b75e36
fat-tree x3 link-cut all-to-all 405a862bbff4279f 4055188888888888 1e1b4630a4c0c5a4 405519ba67b75e36
fat-tree x3 degraded routes 96e0075ee9dc0ff0
fat-tree x3 degraded all-reduce-ring 61fa0595aed7a646 406c4d82d82d82d7 2ee6d3360fe29171 406c4e120f18b950
fat-tree x3 degraded halo-exchange 2b819b3f4bc15b7e 4074f6eeeeeeeeef dd34310bc2da8ac1 4074f8106a8dba7b
fat-tree x3 degraded all-to-all f7f3118269ccac4b 4064f6eeeeeeeeef 0df5fefe6a0c2fbc 4064f8106a8dba7b
fat-tree x5 healthy routes 5555541285e65e82
fat-tree x5 healthy all-reduce-ring 544997872da1e813 4061b77777777778 a0c1ad032d87ed2d 4061b7bd5fca4495
fat-tree x5 healthy halo-exchange b9b2b9ff52177e42 4065188888888888 17084a7623b8a7d9 406519ba67b75e36
fat-tree x5 healthy all-to-all 90422bd614c86f8d 4055188888888888 f1242d291a77d16e 405519ba67b75e36
fat-tree x5 node-lost routes 19017af780d211a2
fat-tree x5 node-lost all-reduce-ring c9be0812acdc8630 406069999999999a 69c366611a6d5c40 406069e5610e3a68
fat-tree x5 node-lost halo-exchange 5b5f6d8a1201f6d2 4065188888888888 35d4807ca71166e1 406519ba67b75e36
fat-tree x5 node-lost all-to-all 5044ca6c9ff9ee41 4055188888888888 e2f385d2d6beceb2 405519ba67b75e36
fat-tree x5 link-cut routes bd955f5b8ccafab4
fat-tree x5 link-cut all-reduce-ring 161eb1ef7da0a913 4061b77777777778 6296c76b7d86ae2d 4061b7bd5fca4495
fat-tree x5 link-cut halo-exchange d12ce934826b9842 4065188888888888 37e099e48e099ad9 406519ba67b75e36
fat-tree x5 link-cut all-to-all 970cc346843c790d 4055188888888888 2eef953cb94713ee 405519ba67b75e36
fat-tree x5 degraded routes 6429382591309842
fat-tree x5 degraded all-reduce-ring e1fc2e5e31de8d04 4071311111111111 671dbcaaff416d9a 40713149ddbeddb9
fat-tree x5 degraded halo-exchange 6b2e6d94907b9c72 4074f6eeeeeeeeef b53186a87d105701 4074f8106a8dba7b
fat-tree x5 degraded all-to-all c8fecfde4c986f49 4064f6eeeeeeeeef 66d10858c5b1f5ce 4064f8106a8dba7b
fat-tree x8 healthy routes 050d8dc5527f2751
fat-tree x8 healthy all-reduce-ring e682ddb90635f8bb 4064111111111111 167d40350608d2b5 4064114b9b560f24
fat-tree x8 healthy halo-exchange 15eb51783726e0aa 4065188888888888 d9a065a752dd4e91 406519ba67b75e36
fat-tree x8 healthy all-to-all 31f990269e17640d 4055188888888888 b30ca4fe1ca7f1be 405519ba67b75e36
fat-tree x8 node-lost routes 80eeade0ce8a841d
fat-tree x8 node-lost all-reduce-ring 65afd8bc6b9d6c03 40636ea0ea0ea0ea 39d6d0e5e79652b3 40636ede7086f037
fat-tree x8 node-lost halo-exchange 8ff40e6b0e8160c6 4065188888888888 b91a71b2dd484029 406519ba67b75e36
fat-tree x8 node-lost all-to-all f15107cd6e2dfcb4 4055188888888888 431ed1d3471290ef 405519ba67b75e36
fat-tree x8 link-cut routes d3adb5d3e111fa77
fat-tree x8 link-cut all-reduce-ring 559947ed2803b7bb 4064111111111111 82d23b9cb90280b5 4064114b9b560f24
fat-tree x8 link-cut halo-exchange eb06b66faeaa6f2a 4065188888888888 e5f74cd9fb6a8d11 406519ba67b75e36
fat-tree x8 link-cut all-to-all 1b065f02865feb8d 4055188888888888 13fb420891f6133e 405519ba67b75e36
fat-tree x8 degraded routes 76959c738ddbd9b1
fat-tree x8 degraded all-reduce-ring d185f83373586cb7 407325ddddddddde 3c066bdd9dce38b9 4073260a11fb879c
fat-tree x8 degraded halo-exchange c2d920168e46da6a 4074f6eeeeeeeeef 7a7376acf9d5d599 4074f8106a8dba7b
fat-tree x8 degraded all-to-all 03ef8f522db5c289 4064f6eeeeeeeeef 75d3ef913b921a5e 4064f8106a8dba7b
fat-tree x16 healthy routes 122517e5d8f8e495
fat-tree x16 healthy all-reduce-ring 860cff90880faa4e 4067780000000000 3e79734de048680e 4067782eb87e391b
fat-tree x16 healthy halo-exchange c88217efd8786f0a 4065188888888888 e7bb697910974c71 406519ba67b75e36
fat-tree x16 healthy all-to-all bc316a846febe55b 4063033333333335 cb5a69adf0855e4f 4063050b279ef5f3
fat-tree x16 node-lost routes c278bc61ec866221
fat-tree x16 node-lost all-reduce-ring 9dec7d1cde0d39e1 40671e93e93e93ea fc093373e1e58ea1 40671ec37c723315
fat-tree x16 node-lost halo-exchange 6d07e57433e63a26 4065188888888888 1c425ce86ff794e1 406519ba67b75e36
fat-tree x16 node-lost all-to-all 8745db0aa6fa66a7 40639b94b94b94b8 934e605645de8596 40639d8a28062379
fat-tree x16 link-cut routes 3a163f20cd0556af
fat-tree x16 link-cut all-reduce-ring 860cff90880faa4e 4067780000000000 3e79734de048680e 4067782eb87e391b
fat-tree x16 link-cut halo-exchange c88217efd8786f0a 4065188888888888 e7bb697910974c71 406519ba67b75e36
fat-tree x16 link-cut all-to-all 0c39b7eef4d3fb5b 4065ca4fa4fa4fa8 ce333d23cac40f6a 4065ccb8cb97ffb8
fat-tree x16 degraded routes 771a13bb7da10c95
fat-tree x16 degraded all-reduce-ring 9eb526bdfa32d4f8 4075800000000000 026072e9f3977f57 4075801f5c42636b
fat-tree x16 degraded halo-exchange c327d84620dceb8a 4074f6eeeeeeeeef 7afd7ee1d8538b19 4074f8106a8dba7b
fat-tree x16 degraded all-to-all cafde1622a659449 4072e1999999999c 77f9c32d2482bc18 4072e362cd1b9c06
fat-tree x64 healthy routes 626c344724e08aa5
fat-tree x64 healthy all-reduce-ring fbf04b7b6c114743 407285cccccccccd 42fe35619191725a 407285df07302d78
fat-tree x64 healthy halo-exchange 0b1ed328d559b98a 4065188888888888 b8f1d83009d60d71 406519ba67b75e36
fat-tree x64 healthy all-to-all 045233db4fd8b9e5 4070044ac4ac4ac1 8e8b131c0bd4113d 40700971af2dd797
fat-tree x64 node-lost routes 5cfee6ef089da741
fat-tree x64 node-lost all-reduce-ring ab4a4e6cc2a73353 40726389e348df38 79a29f23c9393d5e 4072639c25075628
fat-tree x64 node-lost halo-exchange b95787f33408ca46 4065188888888888 d59bd74ae2c8c8d1 406519ba67b75e36
fat-tree x64 node-lost all-to-all dad280fb5d888d35 406fdf9f1af9f1a2 72c5a5ffbe83efe0 406fe9d2e8110789
fat-tree x64 link-cut routes 3deb20024ea4c633
fat-tree x64 link-cut all-reduce-ring fbf04b7b6c114743 407285cccccccccd 42fe35619191725a 407285df07302d78
fat-tree x64 link-cut halo-exchange 0b1ed328d559b98a 4065188888888888 b8f1d83009d60d71 406519ba67b75e36
fat-tree x64 link-cut all-to-all 19bfa11053b64735 4070044ac4ac4ac1 54e7ae08b34b9cdd 40700971af2dd797
fat-tree x64 degraded routes f9725884d722d1e5
fat-tree x64 degraded all-reduce-ring f8eada39a9734391 407cc6cccccccccd c37d9e873a532c99 407cc6e120c9fe1e
fat-tree x64 degraded halo-exchange ea8fd36b82f7908a 4074f6eeeeeeeeef 8c8dff89e1236a19 4074f8106a8dba7b
fat-tree x64 degraded all-to-all 045233db4fd8b9e5 4070044ac4ac4ac1 8e8b131c0bd4113d 40700971af2dd797
torus x2 healthy routes 2a9acecc76039e94
torus x2 healthy all-reduce-ring c93eb0a0e4bc8ecf 4055288888888888 06ba56a203e01d74 40552931d8ae4a83
torus x2 healthy halo-exchange f30a2fc16f32e3fe 4064feeeeeeeeeef 5554208fb92b6a21 40650020ce1dc49c
torus x2 healthy all-to-all 2e93af717ef67616 4054feeeeeeeeeef 6c0bdcf26d9c6b08 40550020ce1dc49c
torus x2 node-lost routes 2a6175446451a72b
torus x2 node-lost all-reduce-ring cd04701c874b8b55 8000000000000000 cd04701c874b8b55 8000000000000000
torus x2 node-lost halo-exchange 76436b7a5a198e64 8000000000000000 76436b7a5a198e64 8000000000000000
torus x2 node-lost all-to-all 7a867960e1af8537 8000000000000000 7a867960e1af8537 8000000000000000
torus x2 link-cut routes error: no live route from node 0 to node 1
torus x2 link-cut all-reduce-ring error: no live route from node 0 to node 1 / no live route from node 0 to node 1
torus x2 link-cut halo-exchange error: no live route from node 0 to node 1 / no live route from node 0 to node 1
torus x2 link-cut all-to-all error: no live route from node 0 to node 1 / no live route from node 0 to node 1
torus x2 degraded routes f60d6ec574964df4
torus x2 degraded all-reduce-ring 2a8b661e6c673033 4064feeeeeeeeeef 553a871729775607 4064ff87dc25c854
torus x2 degraded halo-exchange f7cb8f7f7a766b77 4074ea2222222222 5fb1d31f72d1d732 4074eb439dc0edaf
torus x2 degraded all-to-all 7699fd9d723f576f 4064ea2222222222 bca05bb1b9bc7be7 4064eb439dc0edaf
torus x3 healthy routes cfc5b3e4e689b71b
torus x3 healthy all-reduce-ring 2817c99d474ed503 405c6d82d82d82d7 beb1dc899cb2286f 405c6e27e80fab28
torus x3 healthy halo-exchange 36df23c4d34e1cf7 4064feeeeeeeeeef a3b42a3c250580fc 40650020ce1dc49c
torus x3 healthy all-to-all 3df2f0e96dc0395a 4045288888888888 7b77e038679cee15 40452931d8ae4a83
torus x3 node-lost routes c0c5eb25f1fb537f
torus x3 node-lost all-reduce-ring 848fc5a9e0b3a0c7 4055288888888888 96f8dec0d1ccbc24 40552931d8ae4a83
torus x3 node-lost halo-exchange a1742125d983725e 4064feeeeeeeeeef bbd618c26b4b69e9 40650020ce1dc49c
torus x3 node-lost all-to-all 5eb912d7a1b34b16 4054feeeeeeeeeef e7ff645140b3c290 40550020ce1dc49c
torus x3 link-cut routes 55175a219b7ad008
torus x3 link-cut all-reduce-ring 51a5b89d0339aa27 405d13e93e93e93e fa746d512d47b480 405d148e4e76118e
torus x3 link-cut halo-exchange f19f68ad065f857b 40651eeeeeeeeeee f2e77696ed99d92c 40652020ce1dc49c
torus x3 link-cut all-to-all 06bbfb32163fffe7 4055288888888888 bf507d5efa606e7c 405529ba67b75e36
torus x3 degraded routes 1ef352fb58223f7b
torus x3 degraded all-reduce-ring c71676d4a120a6c4 406c1a4fa4fa4fa4 6b8cefbe18fb0a0f 406c1adedbe5861d
torus x3 degraded halo-exchange 01be33de1e112d1c 40724f7777777778 f543007b9a34270c 40725076d0146ad7
torus x3 degraded all-to-all 92f0aad284ef56c2 4054feeeeeeeeeef 734e98c8943e28de 4054ff87dc25c854
torus x5 healthy routes 60d3df6023b62af9
torus x5 healthy all-reduce-ring d219ec73692c35cb 4061511111111111 732fd3b3ec266060 40615156f963de2e
torus x5 healthy halo-exchange d957e564c7d75f23 4064feeeeeeeeeef a4bdc105d272b898 40650020ce1dc49c
torus x5 healthy all-to-all cd4bed6ace3b939a 404fe66666666666 644bc8d565760088 404fe7cac93e0792
torus x5 node-lost routes 0aed9225e78d7bf8
torus x5 node-lost all-reduce-ring 175dc54a30510596 4060f9999999999a 187c69c86bf84dc4 4060f9e5610e3a68
torus x5 node-lost halo-exchange fa9f7c88390534f5 406543bbbbbbbbbc 56a6a7665aaa49d4 406544ed9aea9169
torus x5 node-lost all-to-all 7b22cba5a00339a1 405c3a4fa4fa4fa4 daca58362ce3c2cd 405c3c60de827d5d
torus x5 link-cut routes 6b221fa811c9b4c2
torus x5 link-cut all-reduce-ring a417348e668c48b7 4063444444444445 4f7e644367e07a98 4063448a2c971162
torus x5 link-cut halo-exchange 1cb058faa8bcd8b3 4065688888888888 9bffb7bdf77db765 406569ba67b75e36
torus x5 link-cut all-to-all c2b1f713931f02da 405fe66666666666 aa4ec18c78c8aee2 405fe8fe10f8da13
torus x5 degraded routes 5feb898f3d1509b9
torus x5 degraded all-reduce-ring 3d3af1b6efe0da4d 4070fdddddddddde 04b607f6ad6f62dd 4070fe16aa8baa86
torus x5 degraded halo-exchange 4cf36fa8424e09d8 40724f7777777778 7f29746c384cf388 40725076d0146ad7
torus x5 degraded all-to-all 36faa7d38c34f5e8 405f933333333333 fe42735e8e029a77 405f947f012ba091
torus x8 healthy routes 48c500b7a9dabeac
torus x8 healthy all-reduce-ring dd8fce1ada564bfa 40635dddddddddde a12dbff46dcc7053 40635e186822dbf1
torus x8 healthy halo-exchange 59b69efd55f3de32 4064feeeeeeeeeef f04fb0d4a3234aed 40650020ce1dc49c
torus x8 healthy all-to-all 533c3c6c70202588 405e697297297299 8ceea212ac0f9ae6 405e6bcec7cf351c
torus x8 node-lost routes d6c58da60f5d1d88
torus x8 node-lost all-reduce-ring 2aeb990b42f6b6d1 40677b6db6db6db7 5eaa71e65b5a9dbe 40677bab3d53bd03
torus x8 node-lost halo-exchange 386a67f850698a57 4065b22222222222 f826d3c94af78261 4065b3540150f7d0
torus x8 node-lost all-to-all fc67fec2a3df3af6 40654d5555555556 03b01021c6dfc088 40654f985d139468
torus x8 link-cut routes 036c2708644f6652
torus x8 link-cut all-reduce-ring cc1af25330df4409 4069edddddddddde 59b100b9813ec9ca 4069ee186822dbf1
torus x8 link-cut halo-exchange cae9ad997e1ff887 4065d6eeeeeeeeef c313893dfa3a8f72 4065d820ce1dc49c
torus x8 link-cut all-to-all 9451ea1d5605db33 40685c09c09c09c3 2544caf892fcd10e 40685ef8b5115394
torus x8 degraded routes 215d33f6adfdd9ec
torus x8 degraded all-reduce-ring fd7c2c9ca2e3eaf6 4072cc4444444444 9bef15ede60b5937 4072cc707861ee02
torus x8 degraded halo-exchange cda949e3d97bce3d 40724f7777777778 e68e943e2d5b1531 40725076d0146ad7
torus x8 degraded all-to-all baa9d6b71415dfff 4065288888888888 31608c87b80d18b3 40652a26199d249a
torus x16 healthy routes 0c456716a60d6fd4
torus x16 healthy all-reduce-ring 86ce7a4288da446d 4075f80000000000 ea1dd302c06b6ede 4075f83eb8b7a282
torus x16 healthy halo-exchange 10a49446c9f69aa2 407261ddddddddde 248ce6d1076c2d2a 407263dc9dd8f147
torus x16 healthy all-to-all 9c2b49b877e74ca7 4063133333333335 e14a1e68e754f90b 4063150b279ef5f3
torus x16 node-lost routes daae0b801fed0c28
torus x16 node-lost all-reduce-ring 8658997e925d825f 407654fa4fa4fa50 d577e01fbbeaceb6 4076553ae0bcff93
torus x16 node-lost halo-exchange 06f0fa523f137bd9 40750c8888888888 25730bea5883c3c9 40750ecb9046c79a
torus x16 node-lost all-to-all 7bef6bf3ac8bb4ee 4062ed1ad1ad1ad1 51e8e450cb6f8bcc 4062eeeb8b34ec85
torus x16 link-cut routes 84bf8326ce141e33
torus x16 link-cut all-reduce-ring 86ce7a4288da446d 4075f80000000000 ea1dd302c06b6ede 4075f83eb8b7a282
torus x16 link-cut halo-exchange 10a49446c9f69aa2 407261ddddddddde 248ce6d1076c2d2a 407263dc9dd8f147
torus x16 link-cut all-to-all 8708dab23d497422 4063133333333335 5c4fa9dfa59b6bf6 4063150b279ef5f3
torus x16 degraded routes 6fd62e62abb563b4
torus x16 degraded all-reduce-ring a29a70456b75c518 4084c00000000000 ecb59df62ef12bd7 4084c02f5c68ecba
torus x16 degraded halo-exchange 654d24aff8314581 40824e4444444444 80ab030255afe258 408250329f6ce6c9
torus x16 degraded all-to-all 87c5df601719086a 4069533333333333 208df0638c1caf2c 4069559ea3270bf9
torus x64 healthy routes 6dac936fc45444e4
torus x64 healthy all-reduce-ring d2566a0bf421d2a6 407ebecccccccccd e33ddc347e7fecc1 407ebef574d1f460
torus x64 healthy halo-exchange 4e362b5a298d1242 407261ddddddddde b83a85c708a1218a 407263dc9dd8f147
torus x64 healthy all-to-all ae7687574904fda9 40728348df389e30 209e4a86a31a55e4 407286a64730de1f
torus x64 node-lost routes 55e1bd7934f55d8c
torus x64 node-lost all-reduce-ring 0dfb7fe1338cf650 4080a5237ce278d3 ca95d7610668b1fa 4080a537e0a58aba
torus x64 node-lost halo-exchange 34f2c674cbb73d29 40750c8888888888 b2818367395ad4a9 40750ecb9046c79a
torus x64 node-lost all-to-all e301a6ff55d8e811 4072a35f3e35f3dc 22fbbf09f348209f 4072a6c85dc81f5d
torus x64 link-cut routes f14b74040b69c81b
torus x64 link-cut all-reduce-ring a0219a9cc7d55092 407ebecccccccccd cfbbd3e812a7442d 407ebef574d1f460
torus x64 link-cut halo-exchange 653e786a0b45f30a 407261ddddddddde 836b4d1a0da85dfa 407263dc9dd8f147
torus x64 link-cut all-to-all e0c446216012b010 40728348df389e30 bf98d674684dd791 407286a64730de1f
torus x64 degraded routes 4a404c3baeb09e44
torus x64 degraded all-reduce-ring 15437673a94a4260 4089a06666666666 65ce1eb4d9943081 4089a07eed9d0996
torus x64 degraded halo-exchange ff67cca103ac86e1 40824e4444444444 a57793b7ff4bf238 408250329f6ce6c9
torus x64 degraded all-to-all 86fea824ac3b42ae 4079c9b7f0d46296 e701b93a3bb74a59 4079ce62745c318e
dragonfly x2 healthy routes 582447d87b438e78
dragonfly x2 healthy all-reduce-ring c93eb0a0e4bc8ecf 4055288888888888 06ba56a203e01d74 40552931d8ae4a83
dragonfly x2 healthy halo-exchange f30a2fc16f32e3fe 4064feeeeeeeeeef 5554208fb92b6a21 40650020ce1dc49c
dragonfly x2 healthy all-to-all 2e93af717ef67616 4054feeeeeeeeeef 6c0bdcf26d9c6b08 40550020ce1dc49c
dragonfly x2 node-lost routes c307c9c97d77e551
dragonfly x2 node-lost all-reduce-ring cd04701c874b8b55 8000000000000000 cd04701c874b8b55 8000000000000000
dragonfly x2 node-lost halo-exchange 76436b7a5a198e64 8000000000000000 76436b7a5a198e64 8000000000000000
dragonfly x2 node-lost all-to-all 7a867960e1af8537 8000000000000000 7a867960e1af8537 8000000000000000
dragonfly x2 link-cut routes error: no live route from node 0 to node 1
dragonfly x2 link-cut all-reduce-ring error: no live route from node 0 to node 1 / no live route from node 0 to node 1
dragonfly x2 link-cut halo-exchange error: no live route from node 0 to node 1 / no live route from node 0 to node 1
dragonfly x2 link-cut all-to-all error: no live route from node 0 to node 1 / no live route from node 0 to node 1
dragonfly x2 degraded routes fa3222606fa92658
dragonfly x2 degraded all-reduce-ring 2a8b661e6c673033 4064feeeeeeeeeef 553a871729775607 4064ff87dc25c854
dragonfly x2 degraded halo-exchange f7cb8f7f7a766b77 4074ea2222222222 5fb1d31f72d1d732 4074eb439dc0edaf
dragonfly x2 degraded all-to-all 7699fd9d723f576f 4064ea2222222222 bca05bb1b9bc7be7 4064eb439dc0edaf
dragonfly x3 healthy routes 88500d17cb0e9658
dragonfly x3 healthy all-reduce-ring d57dc76d273044d7 405c6d82d82d82d7 460e5fdf4e27d453 405c6e27e80fab28
dragonfly x3 healthy halo-exchange 3e28c7c61d8d96e3 4064feeeeeeeeeef c0f0b0101b0a3a30 40650020ce1dc49c
dragonfly x3 healthy all-to-all ccc08bcf931e91be 4045288888888888 1ceaf6b819eccf41 40452931d8ae4a83
dragonfly x3 node-lost routes e9d0cb8884202e90
dragonfly x3 node-lost all-reduce-ring 7c76506514032aeb 4055288888888888 c9737cebfd8f9170 40552931d8ae4a83
dragonfly x3 node-lost halo-exchange baff7e1dda39cb8e 4064feeeeeeeeeef fd44c5b3894b1d91 40650020ce1dc49c
dragonfly x3 node-lost all-to-all 0e89fcd08de3b05a 4054feeeeeeeeeef 8415eb8775039ef4 40550020ce1dc49c
dragonfly x3 link-cut routes f3192bed563a9c37
dragonfly x3 link-cut all-reduce-ring dcd4438003c1399b 405d13e93e93e93e 6d118b62d3f9852c 405d148e4e76118e
dragonfly x3 link-cut halo-exchange 03aec1b73bd0e73f 40651eeeeeeeeeee e584dcdea81d65f8 40652020ce1dc49c
dragonfly x3 link-cut all-to-all 9df2693f4d733dab 4055288888888888 318459f8ee37edf0 405529ba67b75e36
dragonfly x3 degraded routes 515163a2e8ca4ff8
dragonfly x3 degraded all-reduce-ring 73cc4d834028e3b0 406c1a4fa4fa4fa4 f3ddcfbcfc9a51bb 406c1adedbe5861d
dragonfly x3 degraded halo-exchange eae16a4aa442ac68 40724f7777777778 af575b0b08171fe8 40725076d0146ad7
dragonfly x3 degraded all-to-all 1abe40542db49106 4054feeeeeeeeeef c02d2371ef79a1ba 4054ff87dc25c854
dragonfly x5 healthy routes 26f434980e958af2
dragonfly x5 healthy all-reduce-ring 36979cdd8d99a15d 4061511111111111 5e1e9445081a02fa 40615156f963de2e
dragonfly x5 healthy halo-exchange 9f282d8a2f3c8817 4064feeeeeeeeeef 6436a4124ac05354 40650020ce1dc49c
dragonfly x5 healthy all-to-all b147bfd2776f341b 40357bbbbbbbbbbb c62a8817be648018 40357c20c5ac9225
dragonfly x5 node-lost routes d37e2267bb90682e
dragonfly x5 node-lost all-reduce-ring 9d58179ec10b04ae 40601ccccccccccc c7390ce05cc140c2 40601d1894416d9c
dragonfly x5 node-lost halo-exchange 666a7e05771baa46 4064feeeeeeeeeef 022b5b54bd19acf9 40650020ce1dc49c
dragonfly x5 node-lost all-to-all 56aeba54624af733 403c6d82d82d82d7 e3f4ad8c237da37b 403c6e27e80fab28
dragonfly x5 link-cut routes b96cf16d572bb5b5
dragonfly x5 link-cut all-reduce-ring cf13c22aa6a03186 4061f77777777778 738ea04fda53b550 4061f7bd5fca4495
dragonfly x5 link-cut halo-exchange eee0e443312e76bb 40651eeeeeeeeeee c49a0147479004e4 40652020ce1dc49c
dragonfly x5 link-cut all-to-all 2f8f8578367b10ae 40457bbbbbbbbbbb 854be56514d333e6 40457c650be17db7
dragonfly x5 degraded routes edde230b48c0bb12
dragonfly x5 degraded all-reduce-ring 26e157018f1720b3 4070fdddddddddde d6744dd397066f17 4070fe16aa8baa86
dragonfly x5 degraded halo-exchange aa41f1a5ccf661c8 40724f7777777778 b6b001ec93db1594 40725076d0146ad7
dragonfly x5 degraded all-to-all 174b86176bc793dd 4045288888888888 2157953122e889c2 404528dd2fdb02ab
dragonfly x8 healthy routes 55efbb61e7f64567
dragonfly x8 healthy all-reduce-ring 8a3469e34b81180c 407432aaaaaaaaaa b433e47aa01736f9 40743303135d6646
dragonfly x8 healthy halo-exchange bfdc7bbc554f997d 40751aeeeeeeeeee 40d248e2ef53d181 40751d31f6ad2e01
dragonfly x8 healthy all-to-all 927bef462160ab15 40585f3cf3cf3cf4 b1a68f8b2faec308 405860020504d826
dragonfly x8 node-lost routes c028aec25cc49039
dragonfly x8 node-lost all-reduce-ring 0a4deac44df6067f 40738b6db6db6db7 4bbc9ae6e70baaea 40738b9d320e2884
dragonfly x8 node-lost halo-exchange 3bcc5c0468627ffc 40751aeeeeeeeeee c59aa815efa6b794 40751c106a8dba7c
dragonfly x8 node-lost all-to-all 36b162f383e45756 405c571c71c71c71 d2a1b416f18f5931 405c5825094813b8
dragonfly x8 link-cut routes ecfc2f98590c1854
dragonfly x8 link-cut all-reduce-ring 8a3469e34b81180c 407432aaaaaaaaaa b433e47aa01736f9 40743303135d6646
dragonfly x8 link-cut halo-exchange bfdc7bbc554f997d 40751aeeeeeeeeee 40d248e2ef53d181 40751d31f6ad2e01
dragonfly x8 link-cut all-to-all 6623e8673e085674 40585f3cf3cf3cf4 46c0872c587108ad 405860020504d826
dragonfly x8 degraded routes c16c185304bc2da7
dragonfly x8 degraded all-reduce-ring 51937f53080af4d7 408336aaaaaaaaaa c80a31d4dd9a57ad 408336f4bd12d589
dragonfly x8 degraded halo-exchange 4bfb7b990d6a13ab 40825d7777777777 18a18983fc1c2227 40825f65d2a019fc
dragonfly x8 degraded all-to-all 3ad29661876b31ad 4068173cf3cf3cf4 76e8deb216c0e403 406817f8a7dce335
dragonfly x16 healthy routes 74079a0352f20fce
dragonfly x16 healthy all-reduce-ring b418b5a3eb6d5a67 4077c00000000000 89e2619eeab165a3 4077c03eb8b7a282
dragonfly x16 healthy halo-exchange fe63ebbeb71fb55d 40751aeeeeeeeeee dcd6ac0bc9b45ce1 40751d31f6ad2e01
dragonfly x16 healthy all-to-all a005c3a61e0e7671 406125dddddddddd 3833850d134f9709 40612699c0eff68d
dragonfly x16 node-lost routes 1f388aecea3ca259
dragonfly x16 node-lost all-reduce-ring 8448e19275636e78 407761c71c71c71d 411c3a273eea76fb 40776207ad89cc60
dragonfly x16 node-lost halo-exchange 56397baa7ae6d2fc 40751aeeeeeeeeee 50005b1883252048 40751d31f6ad2e01
dragonfly x16 node-lost all-to-all 8547e5633f52c471 4060d9ad1ad1ad1c 4110cee27880aa73 4060da7311d1c879
dragonfly x16 link-cut routes 1a15c6ac75373f72
dragonfly x16 link-cut all-reduce-ring 5b426c28f78145f1 4077c00000000000 cfb0919ad544700b 4077c01f5c42636a
dragonfly x16 link-cut halo-exchange dd2fe25b0e93955d 40751aeeeeeeeeee d45f9435247f27f5 40751c106a8dba7c
dragonfly x16 link-cut all-to-all 92af79a9dc87e578 4061444444444444 1a0ef56e0e503e2c 4061451f78b3aaf2
dragonfly x16 degraded routes 631a8bbd4d32ed6e
dragonfly x16 degraded all-reduce-ring 2add694292178fd5 4085a40000000000 64db031980ffcdc2 4085a42f5c68ecb9
dragonfly x16 degraded halo-exchange e18f1f0377d79c0b 40825d7777777777 9399a6867cadb3d7 40825f65d2a019fc
dragonfly x16 degraded all-to-all c22c9d4aea6584e8 4066b416c16c16c2 4854bcf037a636d7 4066b50ce6c4543c
dragonfly x64 healthy routes 50882698e0470a1b
dragonfly x64 healthy all-reduce-ring 386add11ca67e1a2 40831cffffffffff aa408476ff8ab16f 40831d0a29fe98a8
dragonfly x64 healthy halo-exchange 6fcc3f3c1e48fb51 40751aeeeeeeeeee 31649c12bfb5f9cd 40751c106a8dba7c
dragonfly x64 healthy all-to-all 7aec31d8521a8de0 406ea4a5ca5ca5c4 6e1f3fe91707e98a 406ea6ea9093da10
dragonfly x64 node-lost routes 3d91315569b7de0b
dragonfly x64 node-lost all-reduce-ring f68711fb39fa47f3 408ae9f049af459f be490ee15b623067 408aea04ad725786
dragonfly x64 node-lost halo-exchange b2726bdc9fdeb511 40755c8888888888 600edacafaf2c6d4 40755ecb9046c79a
dragonfly x64 node-lost all-to-all 46b4ebbe8f4c8172 406fcb941839417c b88526cb4ccbb2e7 406fce05c3b9d854
dragonfly x64 link-cut routes 4d7a59b5e513cc8c
dragonfly x64 link-cut all-reduce-ring 474927b610be0406 408b2f6666666667 4ab1b1b5079be2d6 408b2f709064ff0f
dragonfly x64 link-cut halo-exchange 70c73844950d6299 40755a2222222222 251957d77b1d0a49 40755b439dc0edae
dragonfly x64 link-cut all-to-all 0068f5201d92afdd 406f4df5b4b0a059 2fe27309b5c85943 406f50540c9c0acd
dragonfly x64 degraded routes b50e3bed3fa7103b
dragonfly x64 degraded all-reduce-ring 4a1286b2b2059bd1 408d5e0000000000 6dbe67abc0a896b2 408d5e0c4398694f
dragonfly x64 degraded halo-exchange 4505b009fb557b77 40825d7777777777 cced73b8836ce8a3 40825e6e9e4c65c6
dragonfly x64 degraded all-to-all 7aec31d8521a8de0 406ea4a5ca5ca5c4 6e1f3fe91707e98a 406ea6ea9093da10
";

const SWEEP_PINS: &str = "\
multinode 2 fat-tree 3ef47f3cb0c7f30d 3f3b51c98bc19e87 3fef51951b0f26e9 4067f66666666662
multinode 2 torus 3ef4802b7124c875 3f3b51c98bc19e87 3fef5301e8b14b90 4067c3333333332f
multinode 2 dragonfly 3ef4802b7124c875 3f3b51c98bc19e87 3fef5301e8b14b90 4067c3333333332f
multinode 4 fat-tree 3f0476bb84d694cc 3f4b51c98bc19e87 3fef449677f9f984 4069ca222222221e
multinode 4 torus 3f0478978f39c35c 3f4b51c98bc19e87 3fef476dd744dafa 406963bbbbbbbbb8
multinode 4 dragonfly 3f0478978f39c35c 3f4b51c98bc19e87 3fef476dd744dafa 406963bbbbbbbbb8
multinode 8 fat-tree 3f146ed6dfc9844b 3f5b51c98bc19e87 3fef3886ffb89e6e 406b7d9999999995
multinode 8 torus 3f14728c6cae60fd 3f5b51c98bc19e87 3fef3e31e05e4e85 406ab0ccccccccc9
multinode 8 dragonfly 3f13f14192e0ea76 3f5b51c98bc19e87 3fee78a411495bdf 407ba19999999994
multinode 16 fat-tree 3f2463a0238ed58c 3f6b51c98bc19e87 3fef27649f5eca7c 406dea8888888884
multinode 16 torus 3f2402563b715193 3f6b51c98bc19e87 3fee92bd5393debd 4079b3ddddddddda
multinode 16 dragonfly 3f23da9f94c795d1 3f6b51c98bc19e87 3fee560f1025d8b3 407e34eeeeeeeeea
multinode 32 fat-tree 3f344f936fdeefc5 3f7b51c98bc19e87 3fef08c20ba9e9fa 407123b333333331
multinode 32 torus 3f33e9e779b0f15d 3f7b51c98bc19e87 3fee6d684a9a78bf 407c77222222221e
multinode 32 dragonfly 3f33b227b412b3d7 3f7b51c98bc19e87 3fee18398e7308e5 40816f4cccccccca
multinode 64 fat-tree 3f44290943596e22 3f8b51c98bc19e87 3feecddee6655312 407561511111110e
multinode 64 torus 3f43bbd73d4b6755 3f8b51c98bc19e87 3fee270631e8d116 4080df9555555554
multinode 64 dragonfly 3f436528b4807c9b 3f8b51c98bc19e87 3feda293e2f357ed 4085f9b777777775
multinode frontier [1, 2, 4, 5, 7, 9, 12, 15]
recovery 2 25 404e204c82ed78bb 3feff8c6ec510f53 3ff000c5ede4f452 3ef481290c0b887d
recovery 2 50 405e204c82ed78bb 3feffbc04ec6453f 3ff000c5ede4f456 3ef481290c0b8882
recovery 2 100 406e204c82ed78bb 3feffc99d89e9dcc 3ff000c5ede4f457 3ef481290c0b8883
recovery 2 200 407e204c82ed78bb 3feffbc04ec6453f 3ff03221c27ed877 3ef4c0673a748a30
recovery 2 400 408e204c82ed78bb 3feff8c6ec510f53 3ff03221c27ed876 3ef4c0673a748a2f
recovery 4 25 40454d6b388a692e 3feff5c902a8b7fe 3feff87db10427f5 3f0473c9d1a3ab58
recovery 4 50 40554d6b388a692e 3feff9fdc5542fff 3ff004f890eb281d 3f047ef3bbb4f05a
recovery 4 100 40654d6b388a692e 3feffb316aa9bffe 3ff0166c01bd50a6 3f0495478fd77ab5
recovery 4 200 40754d6b388a692e 3feff9fdc5542fff 3ff0166c01bd50a8 3f0495478fd77ab8
recovery 4 400 40854d6b388a692e 3feff5c902a8b7fe 3ff05c39c505f291 3f04ee96e061a3d9
recovery 8 25 403e204c82ed78bb 3feff18dd8a21ea5 3feff534e6a36f44 3f13ea879c1cdd60
recovery 8 50 404e204c82ed78bb 3feff7809d8c8a7f 3ff000c5ede4f452 3f13f23845db44a3
recovery 8 100 405e204c82ed78bb 3feff933b13d3b98 3ff000c5ede4f456 3f13f23845db44a8
recovery 8 200 406e204c82ed78bb 3feff7809d8c8a7f 3ff000c5ede4f457 3f13f23845db44a9
recovery 8 400 407e204c82ed78bb 3feff18dd8a21ea5 3ff03221c27ed877 3f142fbd93ce7d09
recovery 16 25 40354d6b388a692e 3fefeb9205516ffb 3fefefc3f89b13c3 3f23d08d067b8a62
recovery 16 50 40454d6b388a692e 3feff3fb8aa85ffd 3feff87db10427f5 3f23d5f6e8b597e5
recovery 16 100 40554d6b388a692e 3feff662d5537ffe 3ff004f890eb281d 3f23e0caad29b2d5
recovery 16 200 40654d6b388a692e 3feff3fb8aa85ffd 3ff0166c01bd50a6 3f23f6723611e90c
recovery 16 400 40754d6b388a692e 3fefeb9205516ffb 3ff0166c01bd50a8 3f23f6723611e90e
recovery 32 25 402e204c82ed78bb 3fefe31bb1443d4a 3fefe8ddf17cf611 3f33a3eab1507e43
recovery 32 50 403e204c82ed78bb 3fefef013b1914fe 3feff534e6a36f44 3f33ab8305e2675c
recovery 32 100 404e204c82ed78bb 3feff267627a7732 3ff000c5ede4f452 3f33b31b5a745090
recovery 32 200 405e204c82ed78bb 3fefef013b1914fe 3ff000c5ede4f456 3f33b31b5a745095
recovery 32 400 406e204c82ed78bb 3fefe31bb1443d4a 3ff000c5ede4f457 3f33b31b5a745096
recovery 64 25 40254d6b388a692e 3fefd7240aa2dff6 3fefd9f3ab94603b 3f434e191b101a67
recovery 64 50 40354d6b388a692e 3fefe7f71550bffa 3fefefc3f89b13c3 3f435b51bdfe9db6
recovery 64 100 40454d6b388a692e 3fefecc5aaa6fffc 3feff87db10427f5 3f43609b98c46b95
recovery 64 200 40554d6b388a692e 3fefe7f71550bffa 3ff004f890eb281d 3f436b2f4e500740
recovery 64 400 40654d6b388a692e 3fefd7240aa2dff6 3ff0166c01bd50a6 3f438056b9673ee9
recovery frontier [9, 14, 19, 29]
";
