//! ASCII rendering of executed schedules, in the style of the paper's
//! pipeline figures (Figs. 2, 3, 5, 7): one row per worker, one column per
//! tick, micro-batch ids in the cells.

use crate::op::OpKind;
use crate::unit_time::Timeline;

/// Render `timeline` as an ASCII grid. Forward cells show the micro id
/// (e.g. ` 3`), backward cells are bracketed (`⟨3⟩` → rendered as `-3`),
/// recomputing backwards use `~`, allreduce launches `+` and waits `?`;
/// idle ticks are `.`.
pub fn render(timeline: &Timeline) -> String {
    let cell_w = 3;
    let cols = timeline.makespan as usize;
    let mut out = String::new();
    for (w, spans) in timeline.spans.iter().enumerate() {
        let mut row = vec![" . ".to_string(); cols.max(1)];
        for sp in spans {
            let label = match sp.op.kind {
                OpKind::Forward => format!("F{}", sp.op.micro.0),
                OpKind::Backward { recompute: false } => format!("B{}", sp.op.micro.0),
                OpKind::Backward { recompute: true } => format!("R{}", sp.op.micro.0),
                OpKind::AllReduceLaunch => format!("+{}", sp.op.stage.0),
                OpKind::AllReduceWait => format!("?{}", sp.op.stage.0),
            };
            for t in sp.start..sp.finish.max(sp.start + 1) {
                if (t as usize) < row.len() {
                    row[t as usize] = format!("{label:^cell_w$}");
                }
            }
        }
        out.push_str(&format!("P{w}|"));
        for cell in row {
            out.push_str(&cell);
            out.push('|');
        }
        out.push('\n');
    }
    out
}

/// Compact single-line summary of a timeline and the schedule's per-worker
/// activation peaks in `Ma` (the verifier's `peak_activation_units`).
pub fn summary(timeline: &Timeline, peak_act: &[f64]) -> String {
    format!(
        "makespan={} bubble_ratio={:.4} peak_act={:?}",
        timeline.makespan,
        timeline.bubble_ratio(),
        peak_act
            .iter()
            .map(|p| (p * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::dapple;
    use crate::chimera::{chimera, ChimeraConfig};
    use crate::unit_time::{execute, UnitCosts};

    #[test]
    fn render_contains_all_workers_and_idle_cells() {
        let s = chimera(&ChimeraConfig::new(4, 4)).unwrap();
        let tl = execute(&s, UnitCosts::practical()).unwrap();
        let grid = render(&tl);
        for w in 0..4 {
            assert!(grid.contains(&format!("P{w}|")));
        }
        assert!(grid.contains(" . "), "practical Chimera has bubbles");
        assert!(grid.contains("F0"));
        assert!(grid.contains("B3"));
    }

    #[test]
    fn rows_have_equal_width() {
        let s = dapple(4, 4);
        let tl = execute(&s, UnitCosts::practical()).unwrap();
        let grid = render(&tl);
        let widths: Vec<usize> = grid.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn summary_mentions_metrics() {
        let s = dapple(2, 2);
        let tl = execute(&s, UnitCosts::equal()).unwrap();
        let txt = summary(&tl, &[1.25, 1.0]);
        assert!(txt.contains("makespan="));
        assert!(txt.contains("bubble_ratio="));
        assert!(txt.ends_with("peak_act=[1.3, 1.0]"), "{txt}");
    }
}
