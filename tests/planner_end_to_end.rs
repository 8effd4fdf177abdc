//! End-to-end planner/simulator checks of the paper's headline shapes
//! (Figs. 1, 14, 15): who wins, and by roughly what factor.

use chimera::core::chimera::ScaleMethod;
use chimera::perf::planner::{best, plan_chimera, PlanScheme};
use chimera::perf::{ClusterSpec, ModelSpec, StructureTable};

fn chimera_best(model: ModelSpec, cluster: ClusterSpec, p: u32, b_hat: u64) -> f64 {
    [
        ScaleMethod::Direct,
        ScaleMethod::ForwardDoubling,
        ScaleMethod::BackwardHalving,
    ]
    .into_iter()
    .filter_map(|s| plan_chimera(1, s, model, cluster, p, b_hat))
    .map(|c| c.throughput)
    .fold(0.0, f64::max)
}

/// GPT-2 at scale (Fig. 1 / Fig. 15, shrunk to P=512 to keep test time
/// modest): Chimera beats every synchronous baseline and PipeDream.
#[test]
fn gpt2_at_scale_chimera_wins_synchronous() {
    let model = ModelSpec::gpt2();
    let cluster = ClusterSpec::piz_daint();
    let (p, b_hat) = (512, 512u64);
    let chim = chimera_best(model, cluster, p, b_hat);
    assert!(chim > 0.0);
    for scheme in [
        PlanScheme::GPipe,
        PlanScheme::Dapple,
        PlanScheme::Gems,
        PlanScheme::PipeDream,
    ] {
        let base = best(scheme, model, cluster, p, b_hat)
            .map(|c| c.throughput)
            .unwrap_or(0.0);
        assert!(
            chim > base,
            "{}: chimera {chim:.1} vs {base:.1}",
            scheme.label()
        );
    }
    // GEMS loses big (paper: 2.3x).
    let gems = best(PlanScheme::Gems, model, cluster, p, b_hat).unwrap();
    assert!(chim / gems.throughput > 1.5);
    // PipeDream-2BW is the closest competitor (paper: within ~1.2x either way).
    let bw = best(PlanScheme::PipeDream2Bw, model, cluster, p, b_hat).unwrap();
    let ratio = chim / bw.throughput;
    assert!(
        (0.7..1.4).contains(&ratio),
        "Chimera/2BW ratio {ratio:.2} out of the near-parity band"
    );
}

/// Bert-48 at 32 nodes (Fig. 14): Chimera beats DAPPLE and GPipe.
#[test]
fn bert_32_nodes_chimera_beats_sync() {
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    let (p, b_hat) = (32, 512u64);
    let chim = chimera_best(model, cluster, p, b_hat);
    for scheme in [PlanScheme::GPipe, PlanScheme::Dapple, PlanScheme::Gems] {
        let base = best(scheme, model, cluster, p, b_hat).unwrap().throughput;
        assert!(chim > base, "{}: {chim:.1} vs {base:.1}", scheme.label());
    }
}

/// Weak scaling: Chimera's throughput grows near-linearly with P for GPT-2
/// (the paper reports 91.4% efficiency from 512 to 2,048 nodes).
#[test]
fn chimera_weak_scaling_efficiency() {
    let model = ModelSpec::gpt2();
    let cluster = ClusterSpec::piz_daint();
    let t512 = chimera_best(model, cluster, 512, 512);
    let t1024 = chimera_best(model, cluster, 1024, 1024);
    let eff = (t1024 / t512) / 2.0;
    assert!(eff > 0.85, "512->1024 node efficiency {eff:.3}");
}

/// The planner's Eq. 1-selected Chimera configuration is close to the
/// simulator-best one (the paper: within 1.7% for GPT-2).
#[test]
fn model_selection_near_optimal() {
    use chimera::perf::planner::{batch_candidates, depth_candidates, evaluate};
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    let (p, b_hat) = (32u32, 512u64);
    let scheme = PlanScheme::Chimera {
        f: 1,
        scale: ScaleMethod::Direct,
    };
    let picked = plan_chimera(1, ScaleMethod::Direct, model, cluster, p, b_hat).unwrap();
    // Exhaustive simulated best.
    let mut best_sim = 0.0f64;
    for d in depth_candidates(p, &model) {
        let w = p / d;
        for b in batch_candidates(b_hat, w) {
            let table = StructureTable::new();
            if let Some(c) = evaluate(&table, scheme, model, cluster, p, b_hat, w, d, b).unwrap() {
                if c.fits {
                    best_sim = best_sim.max(c.throughput);
                }
            }
        }
    }
    assert!(
        picked.throughput >= 0.9 * best_sim,
        "model picked {:.1}, simulated best {:.1}",
        picked.throughput,
        best_sim
    );
}

/// Memory claim of §4.1: at the same configuration Chimera's per-worker
/// peaks are markedly more balanced than DAPPLE's and its peak is within
/// ~15% of DAPPLE's despite holding two model replicas.
#[test]
fn memory_balance_claim() {
    use chimera::core::baselines::dapple;
    use chimera::core::chimera::{chimera, ChimeraConfig};
    use chimera::perf::TrainConfig;
    use chimera::sim::memory;
    use chimera::verify::memory_v2;

    let cfg = |replicas| TrainConfig {
        model: ModelSpec::gpt2(),
        cluster: ClusterSpec::piz_daint(),
        d: 8,
        w: 4,
        b: 1,
        stage_replicas: replicas,
    };
    let chim = chimera(&ChimeraConfig::new(8, 16)).unwrap();
    let dap = dapple(8, 16);
    let cost_c = cfg(2).cost_model();
    let cost_d = cfg(1).cost_model();
    let peaks = |sched, cost| -> Vec<u64> {
        let workers = memory_v2(sched, cost).workers;
        assert!(workers
            .iter()
            .all(|w| w.coarse_bound_bytes >= w.exact_peak_bytes));
        workers.iter().map(|w| w.coarse_bound_bytes).collect()
    };
    let peaks_c = peaks(&chim, &cost_c);
    let peaks_d = peaks(&dap, &cost_d);
    assert!(memory::imbalance(&peaks_c) < 0.5 * memory::imbalance(&peaks_d));
    let max_c = *peaks_c.iter().max().unwrap() as f64;
    let max_d = *peaks_d.iter().max().unwrap() as f64;
    assert!(
        max_c < 1.25 * max_d,
        "chimera peak {max_c} vs dapple {max_d}"
    );
}

/// One answer to "does it fit": the peak `chimera-cli simulate` prints is the
/// exact walk's (`memory_v2`), not a second model beside it — checked on the
/// asynchronous schemes, where the coarse Table-2 bound it used to print can
/// sit above the exact peak. For PipeDream that is `Candidate::peak_mem`,
/// what `chimera-cli plan` and serve report for the same `(W, D, B)`; the
/// planner's PipeDream-2BW candidate recomputes by default (a different
/// schedule, a smaller peak), so there the reference is the exact peak of
/// the schedule `simulate` names.
#[test]
fn simulate_prints_the_exact_peak() {
    use chimera::core::build_named;
    use chimera::perf::planner::evaluate;
    use chimera::perf::TrainConfig;
    use chimera::verify::memory_v2;

    let (model, cluster) = (ModelSpec::bert48(), ClusterSpec::piz_daint());
    let (p, b_hat, w, d, b) = (32u32, 512u64, 4u32, 8u32, 8u32);
    let printed = |name: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chimera-cli"))
            .args(["simulate", name, "bert48"])
            .args([p, d, b].map(|v| v.to_string()))
            .arg(b_hat.to_string())
            .output()
            .expect("chimera-cli runs");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let peak = |bytes: u64| format!("peak {:.2} GiB", bytes as f64 / (1u64 << 30) as f64);

    let evaluate = |scheme| {
        let table = StructureTable::new();
        evaluate(&table, scheme, model, cluster, p, b_hat, w, d, b).unwrap()
    };
    let cand = evaluate(PlanScheme::PipeDream).unwrap();
    let out = printed("pipedream");
    assert!(out.contains(&peak(cand.peak_mem)), "{out}");

    let cand = evaluate(PlanScheme::PipeDream2Bw).unwrap();
    assert!(cand.recompute);
    let sched = build_named("pipedream-2bw", d, (b_hat / (w * b) as u64) as u32).unwrap();
    let cost = TrainConfig {
        model,
        cluster,
        d,
        w,
        b,
        stage_replicas: sched.placement.replicas(),
    }
    .cost_model();
    let mem = memory_v2(&sched, &cost);
    let coarse = mem
        .workers
        .iter()
        .map(|w| w.coarse_bound_bytes)
        .max()
        .unwrap();
    assert!(
        peak(coarse) != peak(mem.max_exact_peak()),
        "2BW carries slack"
    );
    let out = printed("pipedream-2bw");
    assert!(out.contains(&peak(mem.max_exact_peak())), "{out}");
}

/// `chimera-cli plan`'s stdout, stderr and exit status for `args`.
fn plan_cli(args: &[&str]) -> (String, String, Option<i32>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_chimera-cli"))
        .arg("plan")
        .args(args)
        .output()
        .expect("chimera-cli runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
    (text(out.stdout), text(out.stderr), out.status.code())
}

/// A number that is present and malformed is refused with the value named,
/// never replaced by its default: `8O` devices is not a plan for P = 32.
#[test]
fn plan_refuses_a_malformed_number() {
    let (stdout, stderr, status) = plan_cli(&["bert48", "8O", "64"]);
    assert_eq!(status, Some(2), "{stdout}");
    assert!(stderr.contains("\"8O\""), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}

/// `plan`'s table and `plan --json` are one answer: a row per scheme of the
/// query, and each row's W/D/B/N and throughput are its JSON result's.
#[test]
fn plan_table_prints_the_json_answer() {
    use serde_json::Value;

    let (table, _, status) = plan_cli(&["bert48", "8", "64"]);
    assert_eq!(status, Some(0));
    let (json, _, status) = plan_cli(&["bert48", "8", "64", "--json"]);
    assert_eq!(status, Some(0));
    let doc: Value = serde_json::from_str(&json).expect("plan --json is JSON");
    let results = doc.get("results").and_then(Value::as_array).unwrap();
    let infeasible = doc.get("infeasible").and_then(Value::as_array).unwrap();
    assert!(!results.is_empty());
    let rows: Vec<&str> = table.lines().skip(3).collect();
    assert_eq!(rows.len(), results.len() + infeasible.len(), "{table}");
    for r in results {
        let label = r.get("scheme").and_then(Value::as_str).unwrap();
        let row = (rows.iter())
            .find(|row| row.get(..24).map(str::trim_end) == Some(label))
            .unwrap_or_else(|| panic!("no row for {label}:\n{table}"));
        let cells: Vec<&str> = row[24..].split_whitespace().collect();
        let int = |k: &str| r.get(k).and_then(Value::as_u64).unwrap().to_string();
        assert_eq!(
            &cells[..4],
            [int("w"), int("d"), int("b"), int("n")],
            "{row}"
        );
        let throughput = r.get("throughput").and_then(Value::as_f64).unwrap();
        assert_eq!(cells[5], format!("{throughput:.1}"), "{row}");
    }
}

/// `simulate` quotes throughput for the B̂ it is given, so it refuses a shape
/// whose micro-batches cannot make up exactly B̂ samples — `P` not a multiple
/// of `D`, or `B̂` not a positive multiple of `W·B` — with the values named
/// and exit status 2, as the planner's grid leaves such shapes out.
#[test]
fn simulate_refuses_a_span_that_is_not_b_hat() {
    let simulate = |args: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chimera-cli"))
            .arg("simulate")
            .args(args.split(' '))
            .output()
            .expect("chimera-cli runs");
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
        (text(out.stdout), text(out.stderr), out.status.code())
    };
    // W·B = 8·4 = 32 samples per micro-batch round: 500 is 15 rounds and 20.
    let (stdout, stderr, status) = simulate("chimera bert48 32 4 4 500");
    assert_eq!(status, Some(2), "{stdout}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("B_hat=500") && stderr.contains("= 32"),
        "{stderr}"
    );
    let (stdout, stderr, status) = simulate("chimera bert48 30 4 4 512");
    assert_eq!(status, Some(2), "{stdout}");
    assert!(stderr.contains("P=30 D=4"), "{stderr}");
    let (_, stderr, status) = simulate("chimera bert48 32 4 4 0");
    assert_eq!(status, Some(2), "{stderr}");
    let (stdout, _, status) = simulate("chimera bert48 32 4 4 512");
    assert_eq!(status, Some(0));
    assert!(stdout.contains("P=32 (W=8 D=4 B=4 N=16)"), "{stdout}");
}

/// Every subcommand that runs a Chimera schedule refuses a shape the
/// generator rejects the way `render` and `verify` do: the generator's reason
/// on stderr and exit status 2, never a panic.
#[test]
fn runners_refuse_a_shape_the_generator_rejects() {
    for (args, d, n) in [
        ("train 3 3 1", 3, 3),
        ("train 2 0 1", 2, 0),
        ("overhead-check 3 3 1", 3, 3),
        ("launch --workers 3 --d 3 --transport local --iters 1", 3, 3),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chimera-cli"))
            .args(args.split(' '))
            .output()
            .expect("chimera-cli runs");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        let reason = chimera::core::build_named("chimera", d, n)
            .expect_err("the generator rejects the shape")
            .to_string();
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(&reason), "{args}: {stderr}");
    }
}

/// An output path that cannot be written is a failure, not a panic: exit
/// status 1 with the path on stderr, reported before any training runs. The
/// paths sit below a regular file, so no user — root included — can create
/// them.
#[test]
fn unwritable_outputs_fail_with_the_path() {
    let bad = |name: &str| format!("{}/Cargo.toml/{name}", env!("CARGO_MANIFEST_DIR"));
    let trace = bad("t.jsonl");
    let metrics = bad("m.json");
    let launch = [
        "launch",
        "--workers",
        "2",
        "--d",
        "2",
        "--transport",
        "local",
    ];
    for args in [
        ["train", "2", "4", "1", "--trace", &trace].as_slice(),
        &[&launch[..], &["--iters", "1", "--metrics-out", &metrics]].concat(),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chimera-cli"))
            .args(args)
            .output()
            .expect("chimera-cli runs");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        let path = args.last().expect("the path is the last argument");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(path), "{args:?}: {stderr}");
        assert!(
            !stdout.contains("iter "),
            "{args:?} trained first: {stdout}"
        );
    }
}
