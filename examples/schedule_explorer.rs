//! Schedule explorer: render any scheme's pipeline schedule as ASCII art and
//! report its bubble/memory analytics — handy for studying how the
//! schedules in the paper's figures come about.
//!
//! ```sh
//! cargo run --release --example schedule_explorer -- chimera 4 8
//! cargo run --release --example schedule_explorer -- chimera-f2 8 8
//! cargo run --release --example schedule_explorer -- doubling 4 8
//! cargo run --release --example schedule_explorer -- dapple 4 8
//! ```

use chimera::core::analysis;
use chimera::core::baselines::{dapple, gems, gpipe, pipedream_2bw_steady, pipedream_steady};
use chimera::core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera::core::render;
use chimera::core::schedule::Scheme;
use chimera::core::unit_time::{execute, UnitCosts};
use chimera::verify::verify_span;

fn main() {
    let mut args = std::env::args().skip(1);
    let scheme = args.next().unwrap_or_else(|| "chimera".into());
    let d: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let n: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(d);

    let sched = match scheme.as_str() {
        "chimera" => chimera(&ChimeraConfig::new(d, n)).unwrap(),
        "chimera-f2" => chimera(&ChimeraConfig {
            d,
            n,
            f: 2,
            scale: ScaleMethod::Direct,
        })
        .unwrap(),
        "doubling" => chimera(&ChimeraConfig {
            d,
            n,
            f: 1,
            scale: ScaleMethod::ForwardDoubling,
        })
        .unwrap(),
        "halving" => chimera(&ChimeraConfig {
            d,
            n,
            f: 1,
            scale: ScaleMethod::BackwardHalving,
        })
        .unwrap(),
        "dapple" => dapple(d, n),
        "gpipe" => gpipe(d, n),
        "gems" => gems(d, n),
        "pipedream" => pipedream_steady(d, n, 2),
        "pipedream-2bw" => pipedream_2bw_steady(d, n, 2),
        other => {
            eprintln!(
                "unknown scheme '{other}'; try chimera | chimera-f2 | doubling | halving | \
                 dapple | gpipe | gems | pipedream | pipedream-2bw"
            );
            std::process::exit(1);
        }
    };

    let peak_act = verify_span(&sched, 1).peak_activation_units;
    println!("--- equal forward/backward workloads ---");
    let tl = execute(&sched, UnitCosts::equal()).expect("schedule executes");
    println!("{}", render::render(&tl));
    println!("{}", render::summary(&tl, &peak_act));

    println!("\n--- practical workloads (backward = 2x forward) ---");
    let tl = execute(&sched, UnitCosts::practical()).expect("schedule executes");
    println!("{}", render::render(&tl));
    println!("{}", render::summary(&tl, &peak_act));

    if matches!(
        sched.scheme,
        Scheme::Chimera | Scheme::Dapple | Scheme::GPipe | Scheme::Gems
    ) {
        let a = analysis::table2(sched.scheme, d, n);
        println!(
            "\nTable-2 analytics: bubble {:.3}, weights {:?} Mθ, activations {:?} Ma, {}",
            a.bubble_ratio,
            a.weights_memory,
            a.activations_memory,
            if a.synchronous {
                "synchronous"
            } else {
                "asynchronous"
            }
        );
    }
}
