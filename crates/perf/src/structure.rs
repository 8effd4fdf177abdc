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
//! Schedules and lowered rows are *not* stored (they are the bulk of a
//! planning pass's memory); every candidate is still generated, lowered for
//! its bytes, and simulated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use chimera_core::schedule::Schedule;
use chimera_core::sync::{place_eager_opt, FreeRegions};
use chimera_core::unit_time::{execute, UnitCosts};
use chimera_sim::SimCostModel;
use chimera_verify::{memory_v2, verify_parts, MemoryV2, VerifyReport};

use crate::eq1::{self, CriticalPath};
use crate::planner::PlanScheme;

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
    /// [`chimera_verify::verify_span`]'s report of the shape's schedule
    /// (sync ops placed, recomputation applied).
    pub report: VerifyReport,
    /// Eager-opt sync placement — flushing schemes; `None` where the
    /// schedule carries no sync ops (asynchronous schemes, or a compute
    /// schedule that does not execute, which the report then says).
    pub eager: Option<Vec<Vec<bool>>>,
    /// Eq. 1's critical path — Chimera shapes without the retry, the ones
    /// whose prediction is priced from here. Its free regions are the ones
    /// `eager` was derived from: one timeline serves both.
    pub critical: Option<CriticalPath>,
}

/// A shape's schedule from `base`, the schedule as generated.
fn shape_schedule(base: Schedule, eager: Option<&[Vec<bool>]>, recompute: bool) -> Schedule {
    let synced = match eager {
        Some(mask) => place_eager_opt(base, mask),
        None => base,
    };
    if recompute {
        synced.with_recompute()
    } else {
        synced
    }
}

/// A schedule the planner built does not pass static verification: a
/// planner bug, refused before the schedule is simulated or served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unclean {
    /// The shape whose schedule is defective.
    pub key: StructureKey,
    /// Stable code of its first error diagnostic: the structural report's,
    /// else the priced half's.
    pub code: &'static str,
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

/// A candidate's schedule joined with its shape's [`Structure`] and its
/// exact memory under one cost model.
#[derive(Debug)]
pub struct Opened {
    /// The shape.
    pub key: StructureKey,
    /// Its analysis — from the table, or made at this first sight.
    pub structure: Arc<Structure>,
    /// The schedule: sync ops placed, recomputation applied.
    pub sched: Schedule,
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
    ) -> Result<(Arc<Structure>, Schedule, MemoryV2), Unclean> {
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
            None => Ok((self.structure, self.sched, mem)),
        }
    }
}

/// Counters of a [`StructureTable`] (monotone, except `entries`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that ran the full structural analysis: one
    /// `verify_span`-equivalent each, never more than one per lookup. Every
    /// [`StructureTable::open`] is one lookup and prices one candidate, so
    /// `hits + misses` is the number of candidates priced.
    pub misses: u64,
    /// Shapes held now.
    pub entries: u64,
}

/// Shape → [`Structure`], shared by the search workers of one owner.
#[derive(Debug, Default)]
pub struct StructureTable {
    entries: Mutex<HashMap<StructureKey, Arc<Structure>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StructureTable {
    /// Most shapes held at once. The lattice of `(scheme, D, N)` a service
    /// sees is a few hundred points and an entry is a report plus `O(D)`
    /// integers, so the table is emptied rather than aged when a workload
    /// walks past this: every shape then costs one more analysis.
    pub const CAP: usize = 512;

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
        TableStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries().len() as u64,
        }
    }

    /// The schedule of shape `key` built from `base` — that shape's schedule
    /// as generated, without sync ops — with its structure and its memory
    /// under `cost`; `iterations` is the span `base` covers.
    ///
    /// On the first sight of `key` this runs the planner's full static
    /// analysis: one unit-cost execution for the free regions (which place
    /// the sync ops and, for Chimera, are Eq. 1's overlap windows), two more
    /// for Chimera's `Cf`/`Cb`, and one lowering verified and priced
    /// ([`verify_parts`]). From then on: the stored placement, and one
    /// lowering priced ([`memory_v2`]). The analysis runs outside the
    /// table's lock; of two workers racing on one shape both compute, the
    /// results are equal, and the first insert stays. An unclean structure
    /// is stored like a clean one — same answer on every sight.
    pub fn open(
        &self,
        key: StructureKey,
        base: Schedule,
        iterations: u32,
        cost: &SimCostModel,
    ) -> Opened {
        let found = self.entries().get(&key).cloned();
        if let Some(structure) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let sched = shape_schedule(base, structure.eager.as_deref(), key.recompute);
            let mem = (structure.report.is_clean()).then(|| memory_v2(&sched, cost));
            return Opened {
                key,
                structure,
                sched,
                mem,
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

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
        let sched = shape_schedule(base, eager.as_deref(), key.recompute);
        let (report, mem) = verify_parts(&sched, iterations, cost);
        let mem = mem.filter(|_| report.is_clean());
        let structure = Arc::new(Structure {
            report,
            eager,
            critical,
        });

        let mut entries = self.entries();
        if entries.len() >= Self::CAP && !entries.contains_key(&key) {
            entries.clear();
        }
        let structure = entries.entry(key).or_insert(structure).clone();
        drop(entries);
        Opened {
            key,
            structure,
            sched,
            mem,
        }
    }
}
