//! Executor identity: the timelines `unit_time::execute` and
//! `sim::simulate_span` derive are pinned, span for span, as checksums over
//! `(worker, index, op, start, finish)` — so a change underneath them (the
//! readiness tables of `core::dep`, the compactor that orders Chimera's ops,
//! `place_sync`'s timing analysis) either reproduces every tick or fails
//! here.
//!
//! The matrix is the nine schemes × D ∈ {2, 4, 8} at N = 2D, each bare and —
//! for the flushing schemes — with eager-opt sync placed, plus the unrolled
//! spans whose micro ids run past one iteration's N (the asynchronous
//! schemes' steady state, `concat_iterations`). `GOLDEN` was generated at
//! PR 14's commit (the `HashMap`-keyed tracker and the rescanning compactor);
//! `GOLDEN_V100` simulates the same cases on the V100 cluster, whose
//! eight-GPU nodes price every hop as intra-node (`piz_daint` has one GPU per
//! node), and was generated before the readiness tables went flat. Regenerate
//! both with `cargo test --test executor_identity -- --ignored --nocapture`.

use chimera::core::baselines::{
    dapple, gems, gpipe, pipedream, pipedream_2bw, pipedream_2bw_steady, pipedream_steady,
};
use chimera::core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera::core::op::{Chunk, OpKind};
use chimera::core::repeat::concat_iterations;
use chimera::core::schedule::{Schedule, SyncStrategy};
use chimera::core::sync::place_sync;
use chimera::core::unit_time::{execute, Timeline, UnitCosts};
use chimera::perf::{ClusterSpec, ModelSpec, TrainConfig};
use chimera::sim::simulate_span;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn checksum(tl: &Timeline) -> u64 {
    let mut h = Fnv::new();
    for (w, spans) in tl.spans.iter().enumerate() {
        for (i, sp) in spans.iter().enumerate() {
            let kind = match sp.op.kind {
                OpKind::Forward => 0,
                OpKind::Backward { recompute: false } => 1,
                OpKind::Backward { recompute: true } => 2,
                OpKind::AllReduceLaunch => 3,
                OpKind::AllReduceWait => 4,
            };
            let chunk = match sp.op.chunk {
                Chunk::Full => 0,
                Chunk::Pair => 1,
                Chunk::Half(h) => 2 + h as u64,
            };
            for x in [
                w as u64,
                i as u64,
                kind,
                sp.op.micro.0 as u64,
                sp.op.stage.0 as u64,
                sp.op.replica.0 as u64,
                chunk,
                sp.start,
                sp.finish,
            ] {
                h.word(x);
            }
        }
    }
    h.word(tl.makespan);
    h.0
}

/// `(label, schedule, iterations its span covers)` for one depth.
fn cases(d: u32) -> Vec<(String, Schedule, u32)> {
    let n = 2 * d;
    let chim = |f, scale| chimera(&ChimeraConfig { d, n, f, scale }).unwrap();
    let mut flushing = vec![
        ("gpipe", gpipe(d, n)),
        ("dapple", dapple(d, n)),
        ("gems", gems(d, n)),
        ("chimera", chim(1, ScaleMethod::Direct)),
        ("chimera-halving", chim(1, ScaleMethod::BackwardHalving)),
        ("chimera-doubling", chim(1, ScaleMethod::ForwardDoubling)),
    ];
    // f = 2 needs f | D/2.
    if (d / 2).is_multiple_of(2) {
        flushing.push(("chimera-f2", chim(2, ScaleMethod::Direct)));
    }
    let mut out = Vec::new();
    for (name, s) in flushing {
        let synced = place_sync(s.clone(), SyncStrategy::EagerOpt, UnitCosts::practical());
        out.push((format!("{name}/d{d}"), s, 1));
        out.push((format!("{name}+sync/d{d}"), synced.clone(), 1));
        if name == "dapple" || name == "chimera" {
            out.push((
                format!("{name}+sync x3/d{d}"),
                concat_iterations(&synced, 3, false),
                3,
            ));
        }
    }
    out.push((format!("pipedream/d{d}"), pipedream(d, n), 1));
    out.push((format!("pipedream-2bw/d{d}"), pipedream_2bw(d, n), 1));
    out.push((format!("pipedream x6/d{d}"), pipedream_steady(d, d, 6), 6));
    out.push((
        format!("pipedream-2bw x6/d{d}"),
        pipedream_2bw_steady(d, n, 6).with_recompute(),
        6,
    ));
    out
}

/// `(label, [equal, practical, simulated], simulated on the V100 cluster)`
/// for every case.
fn computed() -> Vec<(String, [u64; 3], u64)> {
    let mut rows = Vec::new();
    for d in [2u32, 4, 8] {
        for (label, s, iters) in cases(d) {
            let simulated = |cluster| {
                let cost = TrainConfig {
                    model: ModelSpec::bert48(),
                    cluster,
                    d,
                    w: 2,
                    b: 4,
                    stage_replicas: s.placement.replicas(),
                }
                .cost_model();
                checksum(&simulate_span(&s, &cost, iters).unwrap().timeline)
            };
            rows.push((
                label,
                [
                    checksum(&execute(&s, UnitCosts::equal()).unwrap()),
                    checksum(&execute(&s, UnitCosts::practical()).unwrap()),
                    simulated(ClusterSpec::piz_daint()),
                ],
                simulated(ClusterSpec::v100_cluster()),
            ));
        }
    }
    rows
}

#[test]
#[ignore = "prints the tables to paste into GOLDEN and GOLDEN_V100"]
fn print_golden() {
    let rows = computed();
    for (label, [equal, practical, sim], _) in &rows {
        println!("    (\"{label}\", [{equal:#018x}, {practical:#018x}, {sim:#018x}]),");
    }
    for (label, _, v100) in &rows {
        println!("    (\"{label}\", {v100:#018x}),");
    }
}

#[test]
fn timelines_match_the_pinned_checksums() {
    let rows = computed();
    assert_eq!(rows.len(), GOLDEN.len(), "the case matrix changed");
    assert_eq!(rows.len(), GOLDEN_V100.len(), "the case matrix changed");
    let pinned = GOLDEN.iter().zip(GOLDEN_V100);
    for ((label, sums, v100), ((golden_label, golden), (_, golden_v100))) in rows.iter().zip(pinned)
    {
        assert_eq!(label, golden_label, "the case matrix changed");
        assert_eq!(
            sums, golden,
            "{label}: [equal, practical, simulated] timeline checksums moved"
        );
        assert_eq!(v100, golden_v100, "{label}: V100 timeline checksum moved");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 3])] = &[
    ("gpipe/d2", [0xc61872497a4d2ed1, 0x100d4291f179d71b, 0x0474f0b6379b5930]),
    ("gpipe+sync/d2", [0x05875a312c8ccd11, 0x551dad5c2cfe72db, 0xd52822c62ab13f8b]),
    ("dapple/d2", [0x5102607a016f5e55, 0xcd3204cac3075113, 0xfada1f652ff78045]),
    ("dapple+sync/d2", [0x6b02a9f4e8fd2f95, 0x4855811b4bc0e5d3, 0x17533e510cf30417]),
    ("dapple+sync x3/d2", [0x52ef36aa2328daf5, 0xcd102561b43a892f, 0x29bca3d844ebae86]),
    ("gems/d2", [0xd2876adccc7cf685, 0x704144778e1ce465, 0x835b4e5c45a0dfca]),
    ("gems+sync/d2", [0x9523ce7c12aa9025, 0x1b38bcb685945585, 0x8dba31f1367d129e]),
    ("chimera/d2", [0x838ef583fb359855, 0x1befa7058fe9715d, 0xa16a43e2f304ce7d]),
    ("chimera+sync/d2", [0x3bde748dfe55bbd5, 0x4c3a83af181e54dd, 0x7c280d2f2a6ea466]),
    ("chimera+sync x3/d2", [0x3ac88855f1fc32f5, 0x61fd8ea3f59d2ccd, 0x69e9650bdfe7d0f0]),
    ("chimera-halving/d2", [0x875066f3e59f5d55, 0x9858345be957b45d, 0xefc22fa5d7496c24]),
    ("chimera-halving+sync/d2", [0x7b92dbdce25b1ed5, 0x443e17bdcda1f5dd, 0xae48219a19d94cd0]),
    ("chimera-doubling/d2", [0x5833624cefc08f5d, 0xa66af9ed3245c825, 0xdf0e44cb84bfa3cf]),
    ("chimera-doubling+sync/d2", [0xc7919b101838871d, 0x223f4bb272ec2525, 0xa9047911b244d140]),
    ("pipedream/d2", [0xdbb8afabe10d8f35, 0xde850abb272ecc73, 0xa05ec942ad9e26ac]),
    ("pipedream-2bw/d2", [0x6b02a9f4e8fd2f95, 0x4855811b4bc0e5d3, 0x17533e510cf30417]),
    ("pipedream x6/d2", [0xacbd1c9fe5c8b855, 0x3b29cc7f3a264fe3, 0x790de2172020f9c0]),
    ("pipedream-2bw x6/d2", [0xe7656e6216d62b9b, 0xeeb8b956f0489689, 0xf59c51fb6a4dd7e7]),
    ("gpipe/d4", [0xcf941d47fab50429, 0x3ee41e7737726007, 0x1d4eb62cf341b0df]),
    ("gpipe+sync/d4", [0xaede7a72a1c0d2a9, 0xc45ed29c39808bc7, 0xeab4b55197a5c30d]),
    ("dapple/d4", [0x4bb05cf8627577e9, 0xd69891e58bc5573f, 0x1f350c3db54e7622]),
    ("dapple+sync/d4", [0x924dee1ee9064969, 0xb1d4d749865f2cff, 0x88234cbcdaf60899]),
    ("dapple+sync x3/d4", [0x0f068e3c5c510111, 0x53c0f04c79d9c89b, 0xc2492f1191b33c27]),
    ("gems/d4", [0xf92afdc0bdb64401, 0x6f3bd818bb44889f, 0xc0586e9aa5c79aad]),
    ("gems+sync/d4", [0x946674b7cc6a9741, 0x6fa2554589d5065f, 0xb66e503a4abfe463]),
    ("chimera/d4", [0xfb573c080a18bba1, 0xb41858cefd438479, 0xd2040f7bba254ecd]),
    ("chimera+sync/d4", [0xcbc16e40241e2d21, 0x6de5c611ac464d39, 0x2c63d288303049fa]),
    ("chimera+sync x3/d4", [0x602e00137cffaae9, 0x66e4c15e8fe5ec31, 0x485721b6f4772fe1]),
    ("chimera-halving/d4", [0xf4199ea943b414c6, 0xec5de6b18a261131, 0x03a1cce42a9ccbee]),
    ("chimera-halving+sync/d4", [0xd9a6b94d5bced9c6, 0xd89df123cd828eb1, 0xf8ff039e356e10ec]),
    ("chimera-doubling/d4", [0x89f5bc500a88f0bd, 0xb28e36aa284d0b89, 0x698f5a0aedea3b4f]),
    ("chimera-doubling+sync/d4", [0xd78d3300d7fd28fd, 0x6297bc3000d158c9, 0xc1f93af291ebd255]),
    ("chimera-f2/d4", [0xe528ab8d8964f3a5, 0x4dffa004ad5000b5, 0x9fcdc47d7710c4ac]),
    ("chimera-f2+sync/d4", [0xa8de952201edf3a5, 0xdb96d67fd8af00b5, 0xbf1840259b07ea57]),
    ("pipedream/d4", [0xabca9c6b96664a69, 0xae9a4c599b63953f, 0x7695adda3b18cfb5]),
    ("pipedream-2bw/d4", [0x924dee1ee9064969, 0xb1d4d749865f2cff, 0x88234cbcdaf60899]),
    ("pipedream x6/d4", [0xc607694e8be7baa9, 0xbbc2c77f61e0e91f, 0xb76778f8dacfad90]),
    ("pipedream-2bw x6/d4", [0x02d0cf8dc8431210, 0x4535cba159fd011e, 0xc553c3cbb4350c10]),
    ("gpipe/d8", [0xe4a9fe00db4d6499, 0x56b614055ea5570f, 0x3930099db0e86cd9]),
    ("gpipe+sync/d8", [0x3c58182a2ac59d99, 0xaf9bb0e094e80acf, 0x04f6732a63a75fe8]),
    ("dapple/d8", [0x42b883c42135ec19, 0xd0a27ca4cc31505f, 0xb946fe6a447bbbe5]),
    ("dapple+sync/d8", [0x1ee06aa81d8d5f19, 0x15b6683245452d9f, 0x213fbe007fc5fc25]),
    ("dapple+sync x3/d8", [0xede0830865a74902, 0x6c676455ccd53bcc, 0x09c0bff321cdeec9]),
    ("gems/d8", [0x6f205d6753e27249, 0x5ce3381935398510, 0xe44f89a66e027c98]),
    ("gems+sync/d8", [0x7d34044a61558589, 0x0ca52ce2d0603190, 0x713d38c4f1cfca30]),
    ("chimera/d8", [0x76f06a8d5608ea2d, 0x292390d6ab46fcb9, 0x050e7704efff02bd]),
    ("chimera+sync/d8", [0x281501dae0ac14ed, 0x3b19e6bd03f4e979, 0xd0f2e3bc5763408f]),
    ("chimera+sync x3/d8", [0x9c2fe724812a755d, 0x5c22b6a849d86b42, 0x1323b0d3758a3a9e]),
    ("chimera-halving/d8", [0xe015b296a8fb3bec, 0x8223a3a7f1fb45e9, 0x00f9628182247abb]),
    ("chimera-halving+sync/d8", [0x23217b6e8979c86c, 0xf0324f24ce475aa9, 0xcfa8248a30201562]),
    ("chimera-doubling/d8", [0x95329ca5ceef5cbd, 0x72475379d835b5e1, 0xfe2c48ea3ae23ed9]),
    ("chimera-doubling+sync/d8", [0xa7b90244aa0e90bd, 0x2c460c81bb6596a1, 0xf3c274e68709085a]),
    ("chimera-f2/d8", [0xe8a1bfe31bfa080d, 0x219b72bf5a095575, 0x0f6853b2b8a41d39]),
    ("chimera-f2+sync/d8", [0xa15be76f8b4a970d, 0x7a9d0ad338f53ff5, 0x930b2fd716a98f6f]),
    ("pipedream/d8", [0x316a1c5e0dd39559, 0xa475c974c9189c5f, 0x0c8d76fa5a19ab15]),
    ("pipedream-2bw/d8", [0x1ee06aa81d8d5f19, 0x15b6683245452d9f, 0x213fbe007fc5fc25]),
    ("pipedream x6/d8", [0xb72a3077f555ccd9, 0x707e840b9ba32430, 0x00bcef1b85b0667e]),
    ("pipedream-2bw x6/d8", [0x3ef146838378dca9, 0x1e6fcb3180cbce30, 0x6003264ee5c6b6bf]),
];

#[rustfmt::skip]
const GOLDEN_V100: &[(&str, u64)] = &[
    ("gpipe/d2", 0x2b3e5a8d0dc80739),
    ("gpipe+sync/d2", 0xa7990a82a784b8df),
    ("dapple/d2", 0x24c09096744171f3),
    ("dapple+sync/d2", 0x63dbb901d8207183),
    ("dapple+sync x3/d2", 0xf1a762ce5908ce2a),
    ("gems/d2", 0xf6404a9b13739cae),
    ("gems+sync/d2", 0x226d23ec79c1a858),
    ("chimera/d2", 0x7d0217232c44775c),
    ("chimera+sync/d2", 0xdbef848f654bfb37),
    ("chimera+sync x3/d2", 0x18975df9f623125e),
    ("chimera-halving/d2", 0x5f1afd5701b7bca4),
    ("chimera-halving+sync/d2", 0x4927fc47516c2801),
    ("chimera-doubling/d2", 0x122d4eaabccb70bd),
    ("chimera-doubling+sync/d2", 0xdac5fd9fc3289a1d),
    ("pipedream/d2", 0xa3be5b4cce6bf96e),
    ("pipedream-2bw/d2", 0x63dbb901d8207183),
    ("pipedream x6/d2", 0x49fc170d16620f55),
    ("pipedream-2bw x6/d2", 0xd9dd17c78cb20d70),
    ("gpipe/d4", 0x96e07d928b46ac23),
    ("gpipe+sync/d4", 0x925da1ae8a521074),
    ("dapple/d4", 0x51a4e1a0886d43a7),
    ("dapple+sync/d4", 0xa86d35c5fdd78ea4),
    ("dapple+sync x3/d4", 0x8fb64f998b291e1c),
    ("gems/d4", 0x8637fbf6c8793482),
    ("gems+sync/d4", 0xdbe7d4b7a74663fa),
    ("chimera/d4", 0x4af1c90f651e8bb9),
    ("chimera+sync/d4", 0x7ede79160bfebead),
    ("chimera+sync x3/d4", 0xce206764c631852f),
    ("chimera-halving/d4", 0xd7e93577288487d6),
    ("chimera-halving+sync/d4", 0xf1645b700340de9c),
    ("chimera-doubling/d4", 0x8799cc465b5d0f97),
    ("chimera-doubling+sync/d4", 0x1d290c9c9050024d),
    ("chimera-f2/d4", 0x71af5e23caa3401c),
    ("chimera-f2+sync/d4", 0x3d63cebccf234527),
    ("pipedream/d4", 0xcf3fb04eb6b0964d),
    ("pipedream-2bw/d4", 0xa86d35c5fdd78ea4),
    ("pipedream x6/d4", 0xd1d8ea4c09b4cb69),
    ("pipedream-2bw x6/d4", 0x12fb84116ee83e8c),
    ("gpipe/d8", 0xe387cd85887bad59),
    ("gpipe+sync/d8", 0x43dbb144eb84ac9a),
    ("dapple/d8", 0x82fdfc854d823a7e),
    ("dapple+sync/d8", 0x689d44149f2dd976),
    ("dapple+sync x3/d8", 0x1fc6de1e19b85bb7),
    ("gems/d8", 0xd6b9d68cd648affc),
    ("gems+sync/d8", 0x1397360f1cff3cc5),
    ("chimera/d8", 0xf685fca4561ab318),
    ("chimera+sync/d8", 0xc12d4e928988caa8),
    ("chimera+sync x3/d8", 0xaa99f6e3e66de946),
    ("chimera-halving/d8", 0x19fd026e6d68f322),
    ("chimera-halving+sync/d8", 0xdcabc349c5db1211),
    ("chimera-doubling/d8", 0xd9b547738732df2b),
    ("chimera-doubling+sync/d8", 0x8a51dc26555c3e70),
    ("chimera-f2/d8", 0x8516d458dd240a88),
    ("chimera-f2+sync/d8", 0x580004b7b87a886b),
    ("pipedream/d8", 0x2a5606e13cfe57e9),
    ("pipedream-2bw/d8", 0x689d44149f2dd976),
    ("pipedream x6/d8", 0x667a2eef04cc6de9),
    ("pipedream-2bw x6/d8", 0x712a50a1c419c213),
];
