//! A lower bound on a schedule's simulated makespan, priced without
//! executing it.
//!
//! Every worker runs its ops strictly in order, so its last op cannot finish
//! before the ops it runs have run back to back. Three kinds of dependency
//! add to that, each a real dependency of the executor
//! ([`chimera_core::dep`]):
//!
//! * *head*: the worker's first compute op — a forward, in a schedule that
//!   executes — cannot start before some forward of every stage below it
//!   has run and sent its output on, one after the other;
//! * *tail*: once its last compute op — a backward — finishes, some backward
//!   of every stage below it still has to receive a gradient and run;
//! * *collectives*: the worker's `k`-th wait on a stage's allreduce cannot
//!   return before its own `k`-th launch of that stage has finished and the
//!   allreduce has run for its duration.
//!
//! So the makespan is at least, over workers, the worker's ops walked in
//! order at their costs — starting its first compute op no earlier than its
//! head, each wait no earlier than its collective — or, if later, its last
//! compute op's finish plus its tail. Chains take the cheapest op class and
//! the cheapest transfer each stage of the replica has; the communication
//! resource collectives share is left out. Every term only drops what the
//! executor adds, so the bound never exceeds the makespan.
//!
//! [`SpanBound`] keeps what the bound reads of a schedule — per worker, its
//! op classes (the op with its micro-batch cleared) and its list as steps:
//! each run of compute ops between two sync ops counted by class, each sync
//! op itself — so one walk of the schedule serves every price list, and a
//! price list is charged once per class, not once per op. The bound holds for
//! any [`CostProvider`] whose op cost and transfer delay are functions of
//! the op's class, as [`crate::SimCostModel`]'s and `UnitCosts`' are.

use chimera_core::op::{Op, OpKind};
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::CostProvider;
use chimera_core::{MicroId, ReplicaId, StageId, WorkerId};

/// One step of a worker's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// Index of the step's op class in `SpanBound::classes`.
    class: u32,
    /// A compute step: the ops of its class in the run. A launch: 1. A wait:
    /// 1 + the position, among the worker's launches, of its own launch of
    /// the collective it waits on; 0 if no launch of the worker's precedes it.
    n: u32,
}

/// Where one worker's steps end, and the ends of its two chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ends {
    /// One past the worker's last step.
    steps: u32,
    /// Class of the worker's first compute op, if that is a forward.
    head: Option<u32>,
    /// Class of its last compute op, if that is a backward.
    tail: Option<u32>,
}

/// A lower bound on `simulate_span`'s makespan of one schedule, kept as op
/// counts and priced under any cost model (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanBound {
    /// One past the highest stage any op or the placement names.
    stages: usize,
    /// One past the highest replica any op or the placement names.
    replicas: usize,
    /// Worker holding `(replica, stage)`, at `replica · stages + stage`;
    /// `None` where the placement has none.
    holders: Vec<Option<WorkerId>>,
    /// Every worker's distinct op classes, worker after worker.
    classes: Vec<Op>,
    /// Every worker's list, worker after worker: a run of compute ops
    /// between two sync ops as one step per class, a sync op as one step.
    steps: Vec<Step>,
    workers: Vec<Ends>,
}

impl SpanBound {
    /// Count `sched`'s ops: one walk.
    pub fn of(sched: &Schedule) -> SpanBound {
        let placement = &sched.placement;
        let workers = sched.num_workers();
        let mut bound = SpanBound {
            stages: placement.d() as usize,
            replicas: placement.replicas() as usize,
            holders: Vec::new(),
            classes: Vec::with_capacity(8 * workers),
            steps: Vec::with_capacity(8 * workers),
            workers: Vec::with_capacity(workers),
        };
        // Per stage, the positions of a worker's launches among all of its
        // launches, and how many of its waits have been matched.
        let (mut launches, mut waits) = (Vec::new(), Vec::new());
        for ops in &sched.workers {
            launches.iter_mut().for_each(Vec::clear);
            waits.fill(0);
            bound.count(ops, &mut launches, &mut waits);
        }
        bound.holders = vec![None; bound.replicas * bound.stages];
        for r in (0..placement.replicas()).map(ReplicaId) {
            for s in (0..placement.d()).map(StageId) {
                bound.holders[r.idx() * bound.stages + s.idx()] = Some(placement.worker(r, s));
            }
        }
        bound.classes.shrink_to_fit();
        bound.steps.shrink_to_fit();
        bound
    }

    /// Append one worker's classes, steps and ends, matching its waits to
    /// its launches in `launches` and `waits` (empty, per stage).
    fn count(&mut self, ops: &[Op], launches: &mut Vec<Vec<u32>>, waits: &mut Vec<usize>) {
        let (own, mut run) = (self.classes.len(), self.steps.len());
        let (mut first, mut last) = (None, None);
        let mut launched = 0;
        for op in ops {
            let class = Op {
                micro: MicroId(0),
                ..*op
            };
            if op.is_compute() {
                // Most ops extend a step of the run they are in.
                let classes = &self.classes;
                let step = (self.steps[run..].iter_mut())
                    .find(|step| classes[step.class as usize] == class);
                let index = match step {
                    Some(step) => {
                        step.n += 1;
                        step.class
                    }
                    None => {
                        let index = self.class_index(own, class);
                        self.steps.push(Step { class: index, n: 1 });
                        index
                    }
                };
                first.get_or_insert((index, op.is_forward()));
                last = Some((index, op.is_backward()));
                continue;
            }
            let s = op.stage.idx();
            if launches.len() <= s {
                launches.resize(s + 1, Vec::new());
                waits.resize(s + 1, 0);
            }
            let n = match op.kind {
                OpKind::AllReduceLaunch => {
                    launches[s].push(launched);
                    launched += 1;
                    1
                }
                _ => {
                    waits[s] += 1;
                    launches[s].get(waits[s] - 1).map_or(0, |&at| at + 1)
                }
            };
            let class = self.class_index(own, class);
            self.steps.push(Step { class, n });
            run = self.steps.len();
        }
        self.workers.push(Ends {
            steps: self.steps.len() as u32,
            head: first.filter(|&(_, forward)| forward).map(|(c, _)| c),
            tail: last.filter(|&(_, backward)| backward).map(|(c, _)| c),
        });
    }

    /// Index of `class` among the worker's classes, which start at `own`;
    /// added if new.
    fn class_index(&mut self, own: usize, class: Op) -> u32 {
        match self.classes[own..].iter().position(|c| *c == class) {
            Some(i) => (own + i) as u32,
            None => {
                self.stages = self.stages.max(class.stage.idx() + 1);
                self.replicas = self.replicas.max(class.replica.idx() + 1);
                self.classes.push(class);
                self.classes.len() as u32 - 1
            }
        }
    }

    /// The bound in ticks of `cost`; with `recompute`, of the schedule whose
    /// every backward recomputes (`Schedule::with_recompute`).
    pub fn ticks<C: CostProvider>(&self, cost: &C, recompute: bool) -> u64 {
        let as_run = |op: &Op| match op.kind {
            OpKind::Backward { .. } if recompute => Op {
                kind: OpKind::Backward { recompute: true },
                ..*op
            },
            _ => *op,
        };
        let prices: Vec<u64> = (self.classes.iter())
            .map(|c| cost.op_cost(&as_run(c)))
            .collect();
        let chains = self.chains(cost, &prices, as_run);
        let chain = |class: u32, dir: usize| chains[self.at(&self.classes[class as usize])][dir];
        let durations: Vec<u64> = (0..self.stages)
            .map(|s| cost.allreduce_duration(StageId(s as u32)))
            .collect();
        let (mut bound, mut from) = (0, 0);
        // The finish of each of the worker's launches so far.
        let mut launched: Vec<u64> = Vec::new();
        for ends in &self.workers {
            launched.clear();
            let (mut t, mut started, mut tail) = (0u64, false, 0u64);
            for step in &self.steps[from..ends.steps as usize] {
                let op = &self.classes[step.class as usize];
                let price = prices[step.class as usize];
                match op.kind {
                    OpKind::Forward | OpKind::Backward { .. } => {
                        if !started {
                            t = t.max(ends.head.map_or(0, |c| chain(c, 0)));
                            started = true;
                        }
                        t += u64::from(step.n) * price;
                        tail = t;
                    }
                    OpKind::AllReduceLaunch => {
                        t += price;
                        launched.push(t);
                    }
                    OpKind::AllReduceWait => {
                        let own = (step.n as usize).checked_sub(1);
                        if let Some(&at) = own.and_then(|k| launched.get(k)) {
                            t = t.max(at + durations[op.stage.idx()]);
                        }
                        t += price;
                    }
                }
            }
            from = ends.steps as usize;
            let below = ends.tail.map_or(0, |c| chain(c, 1));
            bound = bound.max(t.max(tail + below));
        }
        bound
    }

    /// Index of `op`'s `(replica, stage)` in the per-stage tables.
    fn at(&self, op: &Op) -> usize {
        op.replica.idx() * self.stages + op.stage.idx()
    }

    /// Per `(replica, stage)`, the cheapest forward chain through the stages
    /// below it — their forwards and the transfers into `1..=stage` — and the
    /// cheapest backward chain: the transfers into `0..stage` and their
    /// backwards. Priced under `cost`, from `prices` of the classes.
    fn chains<C: CostProvider>(
        &self,
        cost: &C,
        prices: &[u64],
        as_run: impl Fn(&Op) -> Op,
    ) -> Vec<[u64; 2]> {
        let stages = self.stages;
        // Per (replica, stage): the cheapest forward and backward, then the
        // cheapest transfers into them from where their inputs come from.
        let mut links = vec![[u64::MAX; 4]; self.replicas * stages];
        for (op, &price) in self.classes.iter().zip(prices) {
            if op.is_compute() {
                let (dir, here) = (usize::from(op.is_backward()), self.at(op));
                links[here][dir] = links[here][dir].min(price);
                // A forward's input comes from the stage below, a backward's
                // gradient from the stage above.
                let from = match dir {
                    0 => op.stage.idx().checked_sub(1),
                    _ => Some(op.stage.idx() + 1).filter(|&s| s < stages),
                };
                let delay = from
                    .and_then(|from| self.holders[here - op.stage.idx() + from])
                    .zip(self.holders[here])
                    .map_or(0, |(from, to)| cost.p2p_delay(from, to, &as_run(op)));
                links[here][2 + dir] = links[here][2 + dir].min(delay);
            }
        }
        let known = |x: u64| if x == u64::MAX { 0 } else { x };
        let mut chains = vec![[0u64; 2]; self.replicas * stages];
        for r in 0..self.replicas {
            for s in 1..stages {
                let (below, here) = (r * stages + s - 1, r * stages + s);
                let [head, tail] = chains[below];
                let ([fwd, bwd, _, into_below], [_, _, into_here, _]) = (links[below], links[here]);
                chains[here] = [
                    head + known(fwd) + known(into_here),
                    tail + known(into_below) + known(bwd),
                ];
            }
        }
        chains
    }
}
