//! Building schedules by scheme *name* — the single registry behind
//! `chimera-cli` and the trace-drift analyzer in `chimera-obs`, so every
//! surface accepts the same scheme strings.

use crate::baselines::{dapple, gems, gpipe, pipedream_2bw_steady, pipedream_steady};
use crate::chimera::{chimera, ChimeraConfig, GenError, ScaleMethod};
use crate::schedule::Schedule;

/// Every scheme name [`build_named`] accepts, in presentation order.
pub const NAMED_SCHEMES: [&str; 9] = [
    "chimera",
    "chimera-f2",
    "doubling",
    "halving",
    "dapple",
    "gpipe",
    "gems",
    "pipedream",
    "pipedream-2bw",
];

/// Build the schedule for scheme `name` at depth `d` with `n` micro-batches.
///
/// Refuses, naming the violated constraint, an unknown name and every shape
/// the scheme's generator rejects (zero `d` or `n`, odd `d` for the
/// bidirectional schemes, `f ∤ D/2`, odd `n` for GEMS): the arguments come
/// from a command line. The steady-state PipeDream schedules cover two
/// iterations back to back, as everywhere else in the workspace.
pub fn build_named(name: &str, d: u32, n: u32) -> Result<Schedule, GenError> {
    let refuse = |why: String| Err(GenError::InvalidConfig(why));
    if !NAMED_SCHEMES.contains(&name) {
        let known = NAMED_SCHEMES.join(" | ");
        return refuse(format!("unknown scheme {name:?}, expected {known}"));
    }
    if d == 0 || n == 0 {
        return refuse(format!("D and N must be >= 1, got D={d} N={n}"));
    }
    let chimera_with = |f, scale| chimera(&ChimeraConfig { d, n, f, scale });
    Ok(match name {
        "chimera" => chimera_with(1, ScaleMethod::Direct)?,
        "chimera-f2" => chimera_with(2, ScaleMethod::Direct)?,
        "doubling" => chimera_with(1, ScaleMethod::ForwardDoubling)?,
        "halving" => chimera_with(1, ScaleMethod::BackwardHalving)?,
        "dapple" => dapple(d, n),
        "gpipe" => gpipe(d, n),
        "gems" if !d.is_multiple_of(2) || !n.is_multiple_of(2) => {
            return refuse(format!(
                "GEMS pairs micro-batches over a reversed replica: D and N must be even, \
                 got D={d} N={n}"
            ));
        }
        "gems" => gems(d, n),
        "pipedream" => pipedream_steady(d, n, 2),
        _ => pipedream_2bw_steady(d, n, 2),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_time::{execute, UnitCosts};

    #[test]
    fn every_registered_name_builds_and_executes() {
        for name in NAMED_SCHEMES {
            let sched = build_named(name, 4, 4).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(sched.num_workers() > 0, "{name}");
            execute(&sched, UnitCosts::practical()).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }

    #[test]
    fn rejected_shapes_are_refused_by_name_of_the_constraint() {
        let refusal = |name, d, n| build_named(name, d, n).unwrap_err().to_string();
        assert!(refusal("nonsense", 4, 4).contains("unknown scheme"));
        assert!(refusal("chimera", 3, 3).contains("D must be even"));
        assert!(refusal("chimera-f2", 6, 6).contains("f must divide D/2"));
        assert!(refusal("gems", 4, 3).contains("N must be even"));
        assert!(refusal("gems", 3, 4).contains("D and N must be even"));
        for name in NAMED_SCHEMES {
            assert!(refusal(name, 0, 4).contains(">= 1"), "{name}");
            assert!(refusal(name, 4, 0).contains(">= 1"), "{name}");
        }
    }
}
