//! What a candidate *is*, analysed once per schedule shape.
//!
//! A `(W, D, B)` candidate is a schedule shape — a function of
//! `(scheme, D, N, recompute)` alone — and a price list: the bytes and
//! seconds of one `(model, cluster, W, B)`. Everything the planner derives
//! from the shape ([`Structure`]) is the same for every candidate that maps
//! to it, and a search grid maps many to few (one cold pass of the serve
//! benchmark evaluates 102 candidates per scheme over 25 distinct shapes).
//! A [`StructureTable`] holds each shape's analysis from its first sight on;
//! [`StructureTable::open`] is the one path a candidate's schedule takes to
//! become verifiable and priceable, first sight or not.
//!
//! The table belongs to whoever plans repeatedly — `chimera-serve`'s engine
//! owns one for its lifetime, a bare planner call makes a fresh one — and is
//! never global: its hit rate, its memory and its counters are its owner's.
//! The shape's schedule is part of its structure: it is generated, given its
//! sync ops and verified at the first sight, and every later candidate of the
//! shape is simulated from that one copy — if it is simulated at all: the
//! schedule's op counts ([`chimera_sim::SpanBound`]) are structure too, a
//! candidate prices a lower bound on its span from them, and a grid search
//! simulates only the candidates whose bound can still win. So is its
//! memory: the lowering that verifies the schedule also walks it, without
//! sizes, into the few live-buffer count states that can decide a peak
//! ([`chimera_verify::MemoryStates`]) — the schedule's own and its
//! recomputation retry's, where a candidate may take it — and a candidate
//! prices its exact peak, cliff and pool slots from those, lowering nothing.
//! One cold pass of the serve benchmark holds 96 892 ops and 3 274 states in
//! 92 shapes. What the table holds is bounded in ops
//! ([`StructureTable::OP_CAP`]), and so in states: each of a shape's two
//! lists holds at most one state per op of its clean schedule. Lowered rows
//! are not kept (a row is several times an op).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use chimera_core::schedule::Schedule;
use chimera_core::sync::{place_eager_opt, FreeRegions};
use chimera_core::unit_time::{execute, UnitCosts};
use chimera_sim::{SimCostModel, SpanBound};
use chimera_verify::{verify_states, MemoryStates, MemoryV2, VerifyReport};

use crate::eq1::{self, CriticalPath};
use crate::planner::{already_recomputes, PlanScheme};

/// A schedule shape: what [`Structure`] is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructureKey {
    /// Scheme, with Chimera's `f` and scaling method.
    pub scheme: PlanScheme,
    /// Pipeline depth.
    pub d: u32,
    /// Micro-batches per worker per iteration.
    pub n: u32,
    /// Whether the planner's recomputation retry was applied on top of the
    /// scheme's own schedule. The retried variant is a shape of its own: it
    /// is verified itself before it is served.
    pub recompute: bool,
}

/// Everything the planner reads off a schedule shape that no price changes.
#[derive(Debug)]
pub struct Structure {
    /// The shape's schedule: eager-opt sync ops placed where the scheme
    /// flushes, recomputation applied where the key says so.
    pub sched: Schedule,
    /// Training iterations the schedule's span covers.
    pub iterations: u32,
    /// [`chimera_verify::verify_span`]'s report of `sched`.
    pub report: VerifyReport,
    /// Eq. 1's critical path — Chimera shapes without the retry, the ones
    /// whose prediction is priced from here. Its free regions are the ones
    /// the sync ops were placed by: one timeline serves both.
    pub critical: Option<CriticalPath>,
    /// The live-buffer count states of `sched`, walked from the lowering that
    /// verified it ([`chimera_verify::verify_states`]) — with those of
    /// `sched.with_recompute()` for a shape whose candidates may take the
    /// planner's recomputation retry (one without it, whose scheme does not
    /// already recompute); `None` for an unclean report (nothing prices it).
    pub states: Option<MemoryStates>,
    /// Eq. 1's critical path of `sched.with_recompute()`, built at the first
    /// candidate of the shape that takes the recomputation retry.
    retried_critical: OnceLock<CriticalPath>,
    /// `sched`'s op counts, made at the first candidate of the shape that a
    /// grid search ranks (see [`Structure::bound`]).
    bound: OnceLock<SpanBound>,
}

impl Structure {
    /// The analysis of `base`, shape `key`'s schedule as its scheme generates
    /// it (no sync ops, no retry): one unit-cost execution for the free
    /// regions (which place the sync ops and, for Chimera, are Eq. 1's overlap
    /// windows), two more for Chimera's `Cf`/`Cb`, and one lowering verified
    /// and walked into count states ([`verify_states`]).
    pub(crate) fn analyse(key: StructureKey, base: Schedule, iterations: u32) -> Structure {
        // The retried variant places its sync ops where the scheme's own
        // schedule does, and its Eq. 1 is priced from its own executions.
        let regions = (base.flushes)
            .then(|| execute(&base, UnitCosts::practical()).ok())
            .flatten()
            .map(|tl| FreeRegions::of(&base, &tl));
        let eager = regions.as_ref().map(FreeRegions::eager_mask);
        let critical = match (key.scheme, key.recompute, regions) {
            (PlanScheme::Chimera { .. }, false, Some(regions)) => {
                eq1::critical_path_with(&base, regions).ok()
            }
            _ => None,
        };
        let mut sched = match eager {
            Some(mask) => place_eager_opt(base, &mask),
            None => base,
        };
        if key.recompute {
            sched = sched.with_recompute();
        }
        // Kept for the table's lifetime: give back what placing the sync ops
        // over-allocated.
        sched.workers.iter_mut().for_each(Vec::shrink_to_fit);
        let retries = !key.recompute && !already_recomputes(key.scheme, key.d, key.n);
        let (report, states) = verify_states(&sched, iterations, retries);
        Structure {
            states: states.filter(|_| report.is_clean()),
            sched,
            iterations,
            report,
            critical,
            retried_critical: OnceLock::new(),
            bound: OnceLock::new(),
        }
    }

    /// Ops of the schedule.
    fn ops(&self) -> usize {
        self.report.ops
    }

    /// Count states held, the retry's included.
    fn held_states(&self) -> usize {
        self.states.as_ref().map_or(0, MemoryStates::len)
    }

    /// The exact memory of `sched` — or, with `retried`, of
    /// `sched.with_recompute()` — under `cost`, priced from the kept states;
    /// `None` where they are not kept.
    pub fn memory(&self, cost: &SimCostModel, retried: bool) -> Option<MemoryV2> {
        let states = self.states.as_ref()?;
        match retried {
            true => states.price_retried(&self.sched, cost),
            false => Some(states.price(&self.sched, cost)),
        }
    }

    /// `sched`'s op counts, from which a candidate prices a lower bound on
    /// its simulated span — the retried variant's too, with no schedule of
    /// its own. Counted once per shape, at the first candidate a grid search
    /// ranks: Chimera's planning ranks by Eq. 1 and never asks.
    pub fn bound(&self) -> &SpanBound {
        self.bound.get_or_init(|| SpanBound::of(&self.sched))
    }

    /// Eq. 1's critical path of `sched.with_recompute()`: its backward passes
    /// are longer, so its free regions are its own. Built once per shape.
    ///
    /// # Panics
    /// If the schedule does not execute (a clean verdict says it does).
    pub fn retried_critical(&self) -> &CriticalPath {
        self.retried_critical.get_or_init(|| {
            let retried = self.sched.clone().with_recompute();
            eq1::critical_path(&retried).expect("schedule must execute")
        })
    }
}

/// A schedule the planner built does not pass static verification, or
/// passes it and then fails to simulate: a planner bug, refused before the
/// schedule is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unclean {
    /// The shape whose schedule is defective.
    pub key: StructureKey,
    /// Stable code of its first error diagnostic: the structural report's,
    /// else the priced half's; [`Unclean::SIMULATION_FAILED`] for a clean
    /// verdict the simulator refuses.
    pub code: &'static str,
}

impl Unclean {
    /// The code of a candidate whose schedule verified clean and whose
    /// simulation failed: the verdict missed a deadlock or a span the op
    /// counts do not cover.
    pub const SIMULATION_FAILED: &'static str = "simulation_failed";
}

impl std::fmt::Display for Unclean {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "planner produced an invalid {} schedule (D={} N={}): {}",
            self.key.scheme.label(),
            self.key.d,
            self.key.n,
            self.code
        )
    }
}

impl std::error::Error for Unclean {}

/// A candidate joined with its shape's [`Structure`] — the schedule included
/// — and its exact memory under its cost model.
#[derive(Debug)]
pub struct Opened {
    /// The shape.
    pub key: StructureKey,
    /// Its analysis — from the table, or made at this first sight.
    pub structure: Arc<Structure>,
    /// The candidate's price list.
    pub cost: SimCostModel,
    /// Exact per-worker memory; `None` for a schedule whose structure is
    /// not clean (nothing prices it).
    pub mem: Option<MemoryV2>,
}

impl Opened {
    /// The verdict of [`chimera_verify::verify_with_memory`] — structure ⊕
    /// price — without assembling its report: the parts of a candidate whose
    /// structural report is clean, whose every worker fits `capacity_bytes`
    /// and whose coarse Table-2 bound holds.
    pub fn check(
        self,
        capacity_bytes: u64,
    ) -> Result<(Arc<Structure>, SimCostModel, MemoryV2), Unclean> {
        let unclean = |code| Unclean {
            key: self.key,
            code,
        };
        if let Some(first) = self.structure.report.errors().next() {
            return Err(unclean(first.code));
        }
        let mem = self.mem.expect("a clean structure is priced");
        match mem.diagnostics(capacity_bytes).first() {
            Some(first) => Err(unclean(first.code)),
            None => Ok((self.structure, self.cost, mem)),
        }
    }
}

/// Counters of a [`StructureTable`] (monotone, except `entries` and `ops`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that generated the shape's schedule and ran the full
    /// structural analysis: one `verify_span`-equivalent each, never more
    /// than one per lookup. Every [`StructureTable::open`] is one lookup and
    /// prices one candidate, so `hits + misses` is the number of candidates
    /// priced.
    pub misses: u64,
    /// Shapes held now.
    pub entries: u64,
    /// Schedule ops held now, over all shapes.
    pub ops: u64,
    /// Live-buffer count states held now, over all shapes.
    pub states: u64,
    /// Candidates simulated: at most one per pricing, and in a search far
    /// fewer — a grid search simulates only the candidates whose span bound
    /// can still beat its best, Chimera's planning only its winner.
    pub simulated: u64,
}

/// Shape → [`Structure`], shared by the search workers of one owner.
#[derive(Debug, Default)]
pub struct StructureTable {
    entries: Mutex<HashMap<StructureKey, Arc<Structure>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    simulated: AtomicU64,
}

impl StructureTable {
    /// Most schedule ops held at once, over all shapes: 8 MiB of 16-byte ops.
    /// One cold pass of the serve benchmark holds 96 892 in 92 shapes, all
    /// nine schemes on its six query shapes 156 196 in 189. The table is
    /// emptied rather than aged when a workload walks past this — every shape
    /// then costs one more generation and analysis — and a shape that alone
    /// exceeds it is analysed and priced like any other but not kept.
    pub const OP_CAP: usize = 1 << 19;

    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map. Every update under the lock is one `HashMap` call, so a
    /// guard recovered from a panicking holder still guards a valid map.
    fn entries(&self) -> MutexGuard<'_, HashMap<StructureKey, Arc<Structure>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TableStats {
        let entries = self.entries();
        TableStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries.len() as u64,
            ops: entries.values().map(|s| s.ops() as u64).sum(),
            states: entries.values().map(|s| s.held_states() as u64).sum(),
            simulated: self.simulated.load(Ordering::Relaxed),
        }
    }

    /// Count one candidate simulated.
    pub(crate) fn count_simulated(&self) {
        self.simulated.fetch_add(1, Ordering::Relaxed);
    }

    /// Shape `key` with its structure and, under the price list `cost_of`
    /// makes of its schedule, its memory. `generate` builds the shape's
    /// schedule as its scheme generates it (no sync ops, no recomputation
    /// retry) with the iterations its span covers; a shape it refuses (`None`)
    /// is `None` here and no lookup.
    ///
    /// On the first sight of `key` this runs `generate` and the planner's
    /// full static analysis of what it returns (`Structure::analyse`). From
    /// then on nothing is generated and nothing lowered: the kept states are
    /// priced ([`Structure::memory`]). The analysis runs outside the table's
    /// lock; of two workers racing on one shape both compute, the results are
    /// equal, and the first insert stays. An unclean structure is stored like
    /// a clean one — same answer on every sight.
    pub fn open(
        &self,
        key: StructureKey,
        generate: impl FnOnce() -> Option<(Schedule, u32)>,
        cost_of: impl FnOnce(&Schedule) -> SimCostModel,
    ) -> Option<Opened> {
        let found = self.entries().get(&key).cloned();
        let structure = match found {
            Some(structure) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                structure
            }
            None => {
                let (base, iterations) = generate()?;
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.keep(key, Arc::new(Structure::analyse(key, base, iterations)))
            }
        };
        let cost = cost_of(&structure.sched);
        let mem = structure.memory(&cost, false);
        Some(Opened {
            key,
            structure,
            cost,
            mem,
        })
    }

    /// Hold `structure` as `key`'s unless it alone exceeds the bound; returns
    /// the one held (an earlier racer's, if any).
    fn keep(&self, key: StructureKey, structure: Arc<Structure>) -> Arc<Structure> {
        if structure.ops() > Self::OP_CAP {
            return structure;
        }
        let mut entries = self.entries();
        let held: usize = entries.values().map(|s| s.ops()).sum();
        if held + structure.ops() > Self::OP_CAP && !entries.contains_key(&key) {
            entries.clear();
        }
        entries.entry(key).or_insert(structure).clone()
    }
}
