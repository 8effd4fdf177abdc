//! Static verification of pipeline schedules — no execution required.
//!
//! The verifier analyzes the schedule as data, and starts where the runtime
//! does: `chimera_core::program::lower` walks every worker's ops once into
//! the row tables the runtime executes plus a list of typed defects, each
//! surfaced here under its stable code. A schedule lowering refuses is never
//! clean, so a schedule called clean is one `train` runs. The rows are the
//! verifier's only reading of the schedule besides the executor's: as each
//! worker's program streams out of `lower_each`, three folds take what they
//! need from it and the rows are dropped.
//!
//! 1. **Deadlock as a cycle** ([`graph`]): when the schedule cannot
//!    complete, the verifier extracts the actual waits-for cycle through
//!    worker frontiers — the op chain, not just "stuck" — by asking
//!    `chimera_core::dep::DepTracker` what each stalled frontier waits for.
//! 2. **Communication matching** ([`comm_lint`]): the boundary messages the
//!    rows state — the ones the runtime sends — must pair up: every
//!    cross-worker recv has exactly one matching send per `(src, dst, key)`
//!    channel, with per-channel ordering consistent enough for the
//!    keyed-inbox transport in `chimera-comm` (whose `MsgKey` does not
//!    distinguish backward-halving chunks) to deliver the right payloads, and
//!    with a provable bound on parked messages.
//! 3. **Weight hazards** (`hazard`): weight-version staleness per stage
//!    replica — the rows' forward / backward order against the per-iteration
//!    quota lowering holds every allreduce launch to.
//! 4. **Liveness** ([`liveness`]): the lowered rows say which buffers (stash
//!    halves, rematerialized activations, stashed weight versions, gradient
//!    contributions) each op defines and kills; pricing them under a size
//!    model gives every buffer an exact live range. One lowering, priced in
//!    activation units and in bytes, yields the activation peak
//!    ([`VerifyReport::peak_activation_units`]), the *exact* peak-memory
//!    number ([`memory_v2`]) next to the coarse Table-2 bound it tightens,
//!    the memory-cliff op, the interference-based pool pre-sizing plan, and
//!    the stash-discipline diagnostics (`overwritten_stash`,
//!    `use_before_def`, `double_free`) with exact op ranges.
//!
//! The deadlock verdict agrees with `chimera_core::unit_time::execute` by
//! construction — it *is* the executor's verdict; the randomized agreement
//! test pins the blocked-frontier sets and the diagnosis on top of it.

pub mod comm_lint;
pub mod graph;
mod hazard;
pub mod liveness;

use chimera_core::op::OpKind;
use chimera_core::program::{lower_each, structural, Defect, DefectKind, Program, Wires};
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::validate_span;
use chimera_core::WorkerId;
use chimera_sim::cost::SimCostModel;
use liveness::{count_states, CountStates, WorkerStates};

/// Location of an op inside a schedule: worker + index in that worker's
/// program order, plus a rendering of the op itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLoc {
    /// Worker id within the pipeline group.
    pub worker: u32,
    /// Index of the op in the worker's sequence.
    pub op_index: usize,
    /// Textual rendering of the op (`Fm3@s2/r1`, `AR?(s0,r0)`, ...).
    pub op: String,
}

impl OpLoc {
    /// Location of `sched.workers[w][i]`.
    pub fn of(sched: &Schedule, w: usize, i: usize) -> Self {
        OpLoc {
            worker: w as u32,
            op_index: i,
            op: sched.workers[w][i].to_string(),
        }
    }
}

impl std::fmt::Display for OpLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{} op #{} ({})", self.worker, self.op_index, self.op)
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The schedule is wrong: it deadlocks, corrupts data, or overflows
    /// device memory.
    Error,
    /// Suspicious but not provably wrong (e.g. a send nobody consumes).
    Warning,
}

/// One finding, with a stable machine-readable code and the op locations
/// involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `deadlock_cycle`, `unmatched_recv`, `weight_war`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Ops involved, most relevant first (for `deadlock_cycle`: the cycle in
    /// waits-for order).
    pub locations: Vec<OpLoc>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.code, self.message)?;
        for loc in &self.locations {
            write!(f, "\n    at {loc}")?;
        }
        Ok(())
    }
}

/// Static statistics for one cross-worker communication channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Sending worker.
    pub src: u32,
    /// Receiving worker.
    pub dst: u32,
    /// Matched messages on the channel (half-micro units).
    pub messages: usize,
    /// Upper bound on messages parked in the receiver's keyed inbox at any
    /// point: the k-th recv on the channel matching the p-th send can leave
    /// at most `p - k` earlier sends undelivered. Finite by construction —
    /// this is the static proof that the inbox never grows without bound.
    pub max_parked: usize,
}

/// Schema tag of the exact-memory section in JSON reports.
pub const MEMORY_SCHEMA_V2: &str = "memory/v2";

/// Exact static memory for one worker, from the liveness dataflow engine.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMemory {
    /// Exact peak bytes: resident weight state + the liveness engine's peak
    /// over stashes, rematerializations, weight versions, and gradients.
    pub exact_peak_bytes: u64,
    /// Always-resident bytes: one parameter copy + gradient/optimizer
    /// buffers per held stage replica.
    pub resident_bytes: u64,
    /// Peak of the dynamic (liveness-tracked) buffers alone.
    pub dynamic_peak_bytes: u64,
    /// The coarse Table-2 bound this analysis replaces (weight-version
    /// multipliers + activation peak), kept as a cross-check.
    pub coarse_bound_bytes: u64,
    /// `coarse / exact` — how much planner headroom the exact analysis
    /// recovers (≥ 1.0 unless the coarse bound is unsound).
    pub slack_ratio: f64,
    /// The memory cliff: the op whose execution first reaches the peak.
    pub cliff: Option<OpLoc>,
    /// Stashed-activation bytes live at the cliff.
    pub stash_at_peak_bytes: u64,
    /// Stashed weight-version bytes live at the cliff.
    pub versions_at_peak_bytes: u64,
    /// Pool pre-sizing: `(size_class, slots)` pairs, where `size_class` is
    /// `ceil(log2(elements))` of each buffer and `slots` the exact
    /// max-overlap slot demand from the deterministic linear scan.
    pub pool_classes: Vec<(u32, u32)>,
}

/// Exact-memory section of a [`VerifyReport`] (schema [`MEMORY_SCHEMA_V2`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryV2 {
    /// Per-worker exact accounting.
    pub workers: Vec<WorkerMemory>,
}

impl MemoryV2 {
    /// Largest exact peak across workers.
    pub fn max_exact_peak(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.exact_peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Smallest per-worker slack ratio (coarse / exact).
    pub fn min_slack_ratio(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.slack_ratio)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every worker's exact peak fits in `capacity_bytes`.
    pub fn fits(&self, capacity_bytes: u64) -> bool {
        self.workers
            .iter()
            .all(|w| w.exact_peak_bytes <= capacity_bytes)
    }
}

/// The result of statically verifying a schedule.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Scheme name (for reporting).
    pub scheme: String,
    /// Pipeline depth.
    pub d: u32,
    /// Micro-batches in the analyzed span.
    pub n: u32,
    /// Total ops analyzed.
    pub ops: usize,
    /// Whether the happens-before analysis found the schedule cannot
    /// complete. Agrees exactly with dynamic execution.
    pub deadlock: bool,
    /// When deadlocked: every worker frontier that was stuck, in worker
    /// order — the same set `ExecError::Deadlock` carries.
    pub blocked: Vec<OpLoc>,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-channel communication statistics.
    pub channels: Vec<ChannelStats>,
    /// Static peak concurrently-stashed activations per worker, in units of
    /// one micro-batch's activations ([`liveness::UnitMa`]).
    pub peak_activation_units: Vec<f64>,
    /// Exact memory accounting (schema `memory/v2`); present when the
    /// verifier was given a byte-level cost model
    /// ([`verify_with_memory`] / [`memory_v2`]).
    pub memory_v2: Option<MemoryV2>,
}

impl VerifyReport {
    /// No error-severity diagnostics (warnings allowed).
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Pretty JSON for CI consumption.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    fn sort_diagnostics(&mut self) {
        self.diagnostics
            .sort_by_key(|d| (d.severity != Severity::Error, d.code));
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} D={} N={}: {} ops, {} channel(s), {}",
            self.scheme,
            self.d,
            self.n,
            self.ops,
            self.channels.len(),
            if self.deadlock {
                "DEADLOCK"
            } else if self.is_clean() {
                "clean"
            } else {
                "errors"
            }
        )?;
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

impl serde::Serialize for OpLoc {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("OpLoc", 3)?;
        st.serialize_field("worker", &self.worker)?;
        st.serialize_field("op_index", &(self.op_index as u64))?;
        st.serialize_field("op", &self.op)?;
        st.end()
    }
}

impl serde::Serialize for Severity {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

impl serde::Serialize for Diagnostic {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("Diagnostic", 4)?;
        st.serialize_field("code", self.code)?;
        st.serialize_field("severity", &self.severity)?;
        st.serialize_field("message", &self.message)?;
        st.serialize_field("locations", &self.locations)?;
        st.end()
    }
}

impl serde::Serialize for ChannelStats {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("ChannelStats", 4)?;
        st.serialize_field("src", &self.src)?;
        st.serialize_field("dst", &self.dst)?;
        st.serialize_field("messages", &(self.messages as u64))?;
        st.serialize_field("max_parked", &(self.max_parked as u64))?;
        st.end()
    }
}

impl serde::Serialize for WorkerMemory {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("WorkerMemory", 9)?;
        st.serialize_field("exact_peak_bytes", &self.exact_peak_bytes)?;
        st.serialize_field("resident_bytes", &self.resident_bytes)?;
        st.serialize_field("dynamic_peak_bytes", &self.dynamic_peak_bytes)?;
        st.serialize_field("coarse_bound_bytes", &self.coarse_bound_bytes)?;
        st.serialize_field("slack_ratio", &self.slack_ratio)?;
        st.serialize_field("cliff", &self.cliff)?;
        st.serialize_field("stash_at_peak_bytes", &self.stash_at_peak_bytes)?;
        st.serialize_field("versions_at_peak_bytes", &self.versions_at_peak_bytes)?;
        let classes: Vec<serde_json::Value> = self
            .pool_classes
            .iter()
            .map(|&(class, slots)| serde_json::json!({ "class": class, "slots": slots }))
            .collect();
        st.serialize_field("pool_classes", &classes)?;
        st.end()
    }
}

impl serde::Serialize for MemoryV2 {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("MemoryV2", 5)?;
        st.serialize_field("schema", MEMORY_SCHEMA_V2)?;
        st.serialize_field("max_exact_peak_bytes", &self.max_exact_peak())?;
        st.serialize_field("min_slack_ratio", &self.min_slack_ratio())?;
        st.serialize_field(
            "cliff_op",
            &self
                .workers
                .iter()
                .max_by_key(|w| w.exact_peak_bytes)
                .and_then(|w| w.cliff.clone()),
        )?;
        st.serialize_field("workers", &self.workers)?;
        st.end()
    }
}

impl serde::Serialize for VerifyReport {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("VerifyReport", 11)?;
        st.serialize_field("scheme", &self.scheme)?;
        st.serialize_field("d", &self.d)?;
        st.serialize_field("n", &self.n)?;
        st.serialize_field("ops", &(self.ops as u64))?;
        st.serialize_field("deadlock", &self.deadlock)?;
        st.serialize_field("clean", &self.is_clean())?;
        st.serialize_field("blocked", &self.blocked)?;
        st.serialize_field("diagnostics", &self.diagnostics)?;
        st.serialize_field("channels", &self.channels)?;
        st.serialize_field("peak_activation_units", &self.peak_activation_units)?;
        st.serialize_field("memory_v2", &self.memory_v2)?;
        st.end()
    }
}

/// Statically verify `sched` as a span of `iterations` training iterations
/// (matching `simulate_span` / `concat_iterations` semantics): lowering's
/// defects, happens-before deadlock analysis, communication matching, weight
/// hazards, and activation accounting. Purely static — the schedule is never
/// executed — and total: any `Schedule` value gets a report.
pub fn verify_span(sched: &Schedule, iterations: u32) -> VerifyReport {
    verify_states(sched, iterations, false).0
}

/// [`verify_span`]'s report and, from the same lowering, the memory states of
/// `sched` ([`MemoryStates`]) — with its `with_recompute` variant's where
/// `retried` asks for them: the structural half of [`verify_with_memory`], a
/// function of the schedule alone, and all that its priced half reads. A
/// structurally defective schedule gets no states: its placement cannot be
/// priced.
pub fn verify_states(
    sched: &Schedule,
    iterations: u32,
    retried: bool,
) -> (VerifyReport, Option<MemoryStates>) {
    let mut rows = RowFolds {
        peaks: Vec::new(),
        staleness: hazard::Staleness::default(),
        states: MemoryStates::new(retried),
    };
    let (defects, wires) = lower_each(sched, iterations, |p| rows.push(&p));
    let states = (!structural(&defects)).then(|| {
        let mut states = std::mem::take(&mut rows.states);
        states.shrink_to_fit();
        states
    });
    (report_of(sched, iterations, &defects, wires, rows), states)
}

/// What a report takes from the rows, folded one worker's program at a time
/// so that no two programs are ever alive together.
struct RowFolds {
    /// Per worker: the activation peak in `Ma` units (activation-only unit
    /// sizing).
    peaks: Vec<f64>,
    staleness: hazard::Staleness,
    states: MemoryStates,
}

impl RowFolds {
    fn push(&mut self, program: &Program) {
        let own = self.states.push(program);
        let priced = own.price(&program.held, &liveness::UnitMa);
        self.peaks.push(priced.activation_peak);
        self.staleness.push(program);
    }
}

impl Diagnostic {
    /// A lowering defect as an error under its stable code, located at its
    /// op where it names one (def → def for an overwritten stash).
    pub fn of_defect(sched: &Schedule, defect: &Defect) -> Self {
        let (w, i) = (defect.worker as usize, defect.op_ix);
        let op = sched.workers.get(w).and_then(|ops| ops.get(i));
        let def = match defect.kind {
            DefectKind::OverwrittenStash { def } => Some(def),
            _ => None,
        };
        let reason = defect.kind.reason();
        Diagnostic {
            code: defect.kind.code(),
            severity: Severity::Error,
            message: op.map_or(reason.to_string(), |op| {
                format!("P{w} op #{i} ({op}): {reason}")
            }),
            locations: (def.into_iter().chain([i]).filter(|_| op.is_some()))
                .map(|j| OpLoc::of(sched, w, j))
                .collect(),
        }
    }
}

/// [`verify_span`]'s report from the defects and boundary tensors of
/// lowering `sched` and the folds over its rows.
fn report_of(
    sched: &Schedule,
    iterations: u32,
    defects: &[Defect],
    wires: Wires,
    rows: RowFolds,
) -> VerifyReport {
    let mut report = VerifyReport {
        scheme: sched.scheme.name().to_string(),
        d: sched.d,
        n: sched.n,
        ops: sched.workers.iter().map(Vec::len).sum(),
        deadlock: false,
        blocked: Vec::new(),
        diagnostics: Vec::new(),
        channels: Vec::new(),
        peak_activation_units: rows.peaks,
        memory_v2: None,
    };
    let diagnostics = &mut report.diagnostics;

    // A schedule with ids out of range or ops off their placement worker
    // gets its defects only: the passes below index by stage, and the ops
    // lowering refused have no rows to fold.
    if !structural(defects) {
        // The lint's table goes before the executor builds its own.
        let comm = comm_lint::check(sched, &wires);
        drop(wires);
        // Span consistency first: a schedule that does not cover every micro
        // at every stage cannot be meaningfully graph-analyzed for completion.
        if let Err(e) = validate_span(sched, iterations) {
            diagnostics.push(Diagnostic {
                code: "inconsistent_span",
                severity: Severity::Error,
                message: e.to_string(),
                locations: Vec::new(),
            });
        }

        let analysis = graph::analyze(sched);
        diagnostics.extend(analysis.diagnostics);
        (report.deadlock, report.blocked) = (analysis.deadlock, analysis.blocked);

        diagnostics.extend(comm.diagnostics);
        report.channels = comm.channels;

        diagnostics.extend(rows.staleness.lint(sched));
    }

    // Every defect under its own code — except the classes a pass above
    // reports in its own terms: a stash nobody consumes miscounts the span,
    // a lone boundary message is comm_lint's, holders that disagree on a
    // stage's rounds stall the collective.
    use DefectKind::{LoneRecv, LoneSend, RoundsDisagree, UnconsumedStash};
    let own_code = (defects.iter()).filter(|d| {
        !matches!(
            d.kind,
            UnconsumedStash | LoneSend | LoneRecv | RoundsDisagree
        )
    });
    diagnostics.extend(own_code.map(|d| Diagnostic::of_defect(sched, d)));
    report.sort_diagnostics();
    report
}

/// Exact per-worker memory accounting under `cost`'s byte model: resident
/// weight state plus the liveness engine's dynamic peak, cross-checked
/// against the coarse Table-2 bound and paired with a pool pre-sizing plan.
/// One size-free pass over each worker's rows as it is lowered
/// ([`liveness::count_states`]), then its few states priced in bytes.
pub fn memory_v2(sched: &Schedule, cost: &SimCostModel) -> MemoryV2 {
    let mut states = MemoryStates::new(false);
    lower_each(sched, 1, |p| {
        states.push(&p);
    });
    states.price(sched, cost)
}

/// A schedule's live-buffer count states ([`CountStates`]) and, where they
/// were asked for, those of its `with_recompute` variant: its memory as a
/// function of the schedule alone, which [`MemoryStates::price`] turns into
/// [`memory_v2`]'s accounting under any byte model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStates {
    /// Every worker's states, in worker order.
    own: CountStates,
    /// The `with_recompute` variant's, from the same walk.
    retried: Option<CountStates>,
}

impl MemoryStates {
    /// No worker yet; the retry's states recorded too where `retried` asks.
    fn new(retried: bool) -> Self {
        MemoryStates {
            own: CountStates::default(),
            retried: retried.then(CountStates::default),
        }
    }

    /// Walk the next worker's `program` into the states; returns the
    /// schedule's own states of it.
    fn push(&mut self, program: &Program) -> WorkerStates {
        let (own, retried) = count_states(program, self.retried.is_some());
        self.own.push(&own);
        if let (Some(states), Some(worker)) = (&mut self.retried, retried) {
            states.push(&worker);
        }
        own
    }

    fn shrink_to_fit(&mut self) {
        self.own.shrink_to_fit();
        self.retried.iter_mut().for_each(CountStates::shrink_to_fit);
    }

    /// States kept over all workers, the retry's included.
    pub fn len(&self) -> usize {
        self.own.len() + self.retried.as_ref().map_or(0, CountStates::len)
    }

    /// Whether no worker keeps a state.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`memory_v2`]'s accounting of `sched`, the schedule the states were
    /// walked from, under `cost`.
    pub fn price(&self, sched: &Schedule, cost: &SimCostModel) -> MemoryV2 {
        price_states(&self.own, false, sched, cost)
    }

    /// [`memory_v2`]'s accounting of `sched.with_recompute()` under `cost`,
    /// `sched` being the schedule the states were walked from; `None` where
    /// the retry's states were not recorded.
    pub fn price_retried(&self, sched: &Schedule, cost: &SimCostModel) -> Option<MemoryV2> {
        Some(price_states(self.retried.as_ref()?, true, sched, cost))
    }
}

/// [`MemoryStates::price`] of `states` — with `recomputed`, the retry's,
/// whose cliff names a backward as recomputing.
fn price_states(
    states: &CountStates,
    recomputed: bool,
    sched: &Schedule,
    cost: &SimCostModel,
) -> MemoryV2 {
    // The weight term of the coarse Table-2 bound per worker, read off the
    // placement once a first worker shows that it has the schedule's shape.
    let coarse_weights = match states.workers() {
        0 => Vec::new(),
        _ => chimera_sim::memory::weights_bytes(sched, cost),
    };
    let priced = states.price(sched, cost).into_iter().enumerate();
    let workers = priced.map(|(w, (held, priced))| {
        let resident: u64 = (held.iter())
            .map(|&(_, stage)| {
                let st = &cost.stages[stage as usize];
                st.param_bytes + st.grad_opt_bytes
            })
            .sum();
        let dynamic = priced.peak.round() as u64;
        let exact = resident + dynamic;
        let coarse = coarse_weights[w] + priced.activation_peak.round() as u64;
        // The cliff's op as the priced schedule has it.
        let locate = |i: usize| {
            let mut op = sched.workers[w][i];
            if recomputed && op.is_backward() {
                op.kind = OpKind::Backward { recompute: true };
            }
            OpLoc {
                worker: w as u32,
                op_index: i,
                op: op.to_string(),
            }
        };
        WorkerMemory {
            exact_peak_bytes: exact,
            resident_bytes: resident,
            dynamic_peak_bytes: dynamic,
            coarse_bound_bytes: coarse,
            slack_ratio: if exact == 0 {
                1.0
            } else {
                coarse as f64 / exact as f64
            },
            cliff: priced.cliff.map(locate),
            stash_at_peak_bytes: (priced.breakdown.stash + priced.breakdown.remat).round() as u64,
            versions_at_peak_bytes: priced.breakdown.weight_versions.round() as u64,
            pool_classes: priced.slots,
        }
    });
    MemoryV2 {
        workers: workers.collect(),
    }
}

/// [`verify_span`]'s report and [`memory_v2`]'s accounting from one lowering
/// of `sched`: its rows are walked once for the report and the count states,
/// and the states priced twice, in activation units and in `cost`'s bytes.
/// The report is the *structural* half of [`verify_with_memory`] — a
/// function of the schedule alone; the memory is the half a cost model
/// prices, joined to it by [`VerifyReport::priced`]. A structurally defective
/// schedule gets no memory: its placement cannot be priced.
pub fn verify_parts(
    sched: &Schedule,
    iterations: u32,
    cost: &SimCostModel,
) -> (VerifyReport, Option<MemoryV2>) {
    let (report, states) = verify_states(sched, iterations, false);
    (report, states.map(|states| states.price(sched, cost)))
}

impl MemoryV2 {
    /// The priced findings of a report: `capacity_overflow` where a worker's
    /// exact peak exceeds `capacity_bytes`, located at the memory-cliff op,
    /// and `coarse_bound_exceeded` where it exceeds the superseded Table-2
    /// bound (which would mean the old lint under-approximated).
    pub fn diagnostics(&self, capacity_bytes: u64) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (w, wm) in self.workers.iter().enumerate() {
            if wm.exact_peak_bytes > capacity_bytes {
                out.push(Diagnostic {
                    code: "capacity_overflow",
                    severity: Severity::Error,
                    message: format!(
                        "{} exact peak memory {:.2} GiB (resident {:.2} + dynamic {:.2}) \
                         exceeds device capacity {:.2} GiB",
                        WorkerId(w as u32),
                        wm.exact_peak_bytes as f64 / (1u64 << 30) as f64,
                        wm.resident_bytes as f64 / (1u64 << 30) as f64,
                        wm.dynamic_peak_bytes as f64 / (1u64 << 30) as f64,
                        capacity_bytes as f64 / (1u64 << 30) as f64
                    ),
                    locations: wm.cliff.clone().into_iter().collect(),
                });
            }
            if wm.exact_peak_bytes > wm.coarse_bound_bytes {
                out.push(Diagnostic {
                    code: "coarse_bound_exceeded",
                    severity: Severity::Error,
                    message: format!(
                        "{} exact peak {} B exceeds the coarse Table-2 bound {} B — \
                         the superseded lint under-approximated this schedule",
                        WorkerId(w as u32),
                        wm.exact_peak_bytes,
                        wm.coarse_bound_bytes
                    ),
                    locations: wm.cliff.clone().into_iter().collect(),
                });
            }
        }
        out
    }
}

impl VerifyReport {
    /// This structural report joined with its priced half: `mem` as the
    /// memory section and [`MemoryV2::diagnostics`] against `capacity_bytes`.
    pub fn priced(mut self, mem: MemoryV2, capacity_bytes: u64) -> VerifyReport {
        self.diagnostics.extend(mem.diagnostics(capacity_bytes));
        self.memory_v2 = Some(mem);
        self.sort_diagnostics();
        self
    }
}

/// [`verify_span`] plus the exact memory lint — structure ⊕ price: the
/// report of [`verify_parts`] with per-worker peak memory from the liveness
/// dataflow engine ([`memory_v2`]) checked against `capacity_bytes`
/// ([`VerifyReport::priced`]), the schedule lowered once.
pub fn verify_with_memory(
    sched: &Schedule,
    iterations: u32,
    cost: &SimCostModel,
    capacity_bytes: u64,
) -> VerifyReport {
    match verify_parts(sched, iterations, cost) {
        (structure, Some(mem)) => structure.priced(mem, capacity_bytes),
        (structure, None) => structure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::baselines::gpipe;
    use chimera_sim::{AllReduceAlgo, NetworkModel, SimCostModel, StageCosts, Topology};

    fn cost(d: u32, act_bytes: u64) -> SimCostModel {
        SimCostModel {
            stages: vec![
                StageCosts {
                    fwd_s: 1e-3,
                    bwd_s: 2e-3,
                    recompute_s: 1e-3,
                    boundary_bytes: 1 << 20,
                    act_bytes,
                    param_bytes: 100 << 20,
                    grad_opt_bytes: 200 << 20,
                };
                d as usize
            ],
            network: NetworkModel::cray_aries(),
            topology: Topology::one_per_node(d),
            allreduce_participants: 2,
            allreduce_algo: AllReduceAlgo::Rabenseifner,
            allreduce_beta_factor: 1.0,
            launch_overhead_s: 0.0,
            half_chunk_penalty: 1.0,
            comm_compute_interference: 0.0,
            p2p_host_overhead_s: 0.0,
            p2p_host_s_per_byte: 0.0,
        }
    }

    /// GPipe's all-forwards prologue stashes N activations at once: with
    /// 1 GiB activations each that overflows a 4 GiB device, and the
    /// diagnostic points at the op where the peak is reached (the last
    /// injected forward). Doubling capacity clears the report.
    #[test]
    fn capacity_overflow_is_flagged_with_the_peak_op() {
        let s = gpipe(2, 4);
        let c = cost(2, 1 << 30);
        let report = verify_with_memory(&s, 1, &c, 4 << 30);
        let oom: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "capacity_overflow")
            .collect();
        assert!(!report.is_clean());
        assert!(
            !oom.is_empty(),
            "no capacity_overflow diagnostic:\n{report}"
        );
        // 4 activations + ~300 MiB of weight state > 4 GiB on both workers.
        assert_eq!(oom.len(), 2);
        assert_eq!(oom[0].locations[0].op_index, 3, "{}", oom[0].locations[0]);

        let roomy = verify_with_memory(&s, 1, &c, 8 << 30);
        assert!(roomy.is_clean(), "{roomy}");
    }
}
