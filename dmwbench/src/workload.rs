//! The benchmark's workloads: seed-generated trial lists and the oracle
//! each trial's outcome is checked against.
//!
//! A workload is a [`Shape`] (who bids on what, under which network
//! faults) expanded by [`Shape::setup`] into one published configuration
//! and a fixed list of trials. The same seed always yields the same
//! configuration, bid matrices and fault plans, so every count the
//! benchmark reports repeats exactly for a given seed.

use dmw::messages::Body;
use dmw::runner::{DmwRun, DmwRunner, RunResult};
use dmw::{Behavior, DmwConfig};
use dmw_mechanism::{generators, ExecutionTimes, MinWork, TieBreak};
use dmw_simnet::{FaultPlan, LockstepTransport, NodeId, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which fault regime a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Honest agents, lossless network, recovery off.
    Auction,
    /// Recovery on, `drop_every(3)` loss, and every eighth trial crashes
    /// one agent at tick 40 (the committed `bench_batch` chaos shape).
    Chaos,
    /// Every agent crashes at tick 0; bidding broadcasts go into a dead
    /// network and the run aborts after the patience window.
    Blackout,
}

/// The size and fault regime of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Fault regime.
    pub kind: Kind,
    /// Agents `n`.
    pub agents: usize,
    /// Tolerated faults `c`.
    pub faults: usize,
    /// Tasks `m` auctioned per trial.
    pub tasks: usize,
    /// Distinct trials in the list an end-to-end run cycles through.
    pub trials: usize,
    /// Leading trials of the list a traced run cycles through.
    pub traced: usize,
}

/// Tick at which a chaos crash trial loses its victim.
pub const CHAOS_CRASH_TICK: u64 = 40;

/// Patience (ticks) every blackout agent waits for commitments.
pub const BLACKOUT_PATIENCE: u64 = 256;

/// The named workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, Shape); 3] = [
    (
        "auction-n32",
        Shape {
            kind: Kind::Auction,
            agents: 32,
            faults: 1,
            tasks: 4,
            trials: 80,
            traced: 8,
        },
    ),
    (
        "chaos-n8",
        Shape {
            kind: Kind::Chaos,
            agents: 8,
            faults: 1,
            tasks: 4,
            trials: 2048,
            traced: 64,
        },
    ),
    (
        "blackout-n128",
        Shape {
            kind: Kind::Blackout,
            agents: 128,
            faults: 1,
            tasks: 2,
            trials: 80,
            traced: 8,
        },
    ),
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Shape> {
    WORKLOADS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, shape)| shape)
}

/// One trial: the bids, the network faults it runs under, and the seed
/// of the RNG handed to [`DmwRunner::run`].
#[derive(Debug, Clone)]
pub struct Trial {
    /// Bid matrix, rows agents, columns tasks.
    pub bids: ExecutionTimes,
    /// Fault plan of the trial's transport.
    pub faults: FaultPlan,
    /// The agent a chaos crash trial loses, if any.
    pub crashed: Option<usize>,
    /// Seed of the RNG passed to the runner.
    pub seed: u64,
}

/// A set-up workload: runner and trial list.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The workload's shape.
    pub shape: Shape,
    /// The runner every trial goes through (`verify_threads = 1`).
    pub runner: DmwRunner,
    /// The trial list.
    pub trials: Vec<Trial>,
    behaviors: Vec<Behavior>,
}

impl Shape {
    /// The same workload at another size, for quick passes in tests;
    /// traced runs cycle through the whole list.
    #[must_use]
    pub fn resized(mut self, agents: usize, tasks: usize, trials: usize) -> Shape {
        self.agents = agents;
        self.tasks = tasks;
        self.trials = trials;
        self.traced = trials;
        self
    }

    /// Generates the configuration (Schnorr group, pseudonyms) and the
    /// trial list from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not a valid DMW configuration.
    pub fn setup(&self, seed: u64) -> Setup {
        let n = self.agents;
        let mut rng = StdRng::seed_from_u64(seed);
        let config = DmwConfig::generate(n, self.faults, &mut rng).expect("valid workload shape");
        let w_max = config.encoding().w_max();
        let runner = DmwRunner::new(config).with_verify_threads(1);
        let runner = match self.kind {
            Kind::Auction => runner,
            Kind::Chaos => runner.with_recovery(),
            Kind::Blackout => runner
                .with_patience(BLACKOUT_PATIENCE)
                .with_round_budget(BLACKOUT_PATIENCE * 4),
        };
        let trials = (0..self.trials)
            .map(|i| {
                let bids = generators::uniform(n, self.tasks, 1..=w_max, &mut rng)
                    .expect("valid bid shape");
                let (faults, crashed) = match self.kind {
                    Kind::Auction => (FaultPlan::none(n), None),
                    Kind::Chaos => {
                        let lossy = FaultPlan::none(n).drop_every(3);
                        if i % 8 == 3 {
                            let victim = i % n;
                            (
                                lossy.crash_at(NodeId(victim), CHAOS_CRASH_TICK),
                                Some(victim),
                            )
                        } else {
                            (lossy, None)
                        }
                    }
                    Kind::Blackout => (
                        (0..n).fold(FaultPlan::none(n), |plan, node| {
                            plan.crash_at(NodeId(node), 0)
                        }),
                        None,
                    ),
                };
                Trial {
                    bids,
                    faults,
                    crashed,
                    seed: rng.gen(),
                }
            })
            .collect();
        Setup {
            shape: *self,
            runner,
            trials,
            behaviors: vec![Behavior::Suggested; n],
        }
    }
}

/// The transport a trial runs on — the one `DmwRunner::run` builds
/// internally, constructed here once for every traced run.
pub fn transport(trial: &Trial) -> LockstepTransport<Body> {
    LockstepTransport::with_faults(trial.bids.agents(), trial.faults.clone())
}

impl Setup {
    /// Runs `trial` through the public [`DmwRunner::run`].
    ///
    /// # Panics
    ///
    /// Panics if the runner rejects the trial's shape.
    pub fn run(&self, trial: &Trial) -> DmwRun {
        self.runner
            .run(
                &trial.bids,
                &self.behaviors,
                trial.faults.clone(),
                &mut StdRng::seed_from_u64(trial.seed),
            )
            .expect("workload trials have valid shapes")
    }

    /// Runs `trial` through [`DmwRunner::run_on`] over `transport`.
    ///
    /// # Panics
    ///
    /// Panics if the runner rejects the trial's shape.
    pub fn run_on<T: Transport<Body>>(&self, trial: &Trial, transport: T) -> DmwRun {
        self.runner
            .run_on(
                &trial.bids,
                &self.behaviors,
                transport,
                &mut StdRng::seed_from_u64(trial.seed),
            )
            .expect("workload trials have valid shapes")
    }

    /// Checks a trial's run against the workload's oracle.
    ///
    /// * auction: `Completed`, schedule and payments equal to centralized
    ///   MinWork with lowest-index tie-breaking;
    /// * chaos: a loss-only trial as auction; a crash trial ends
    ///   `Completed` or `Degraded` and excludes no agent but the victim;
    /// * blackout: `Aborted` with nothing delivered.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated expectation.
    pub fn check(&self, trial: &Trial, run: &DmwRun) -> Result<(), String> {
        match (self.shape.kind, trial.crashed) {
            (Kind::Auction, _) | (Kind::Chaos, None) => {
                let RunResult::Completed(outcome) = &run.result else {
                    return Err(format!("expected Completed, got {:?}", run.result));
                };
                let expected = MinWork::new(TieBreak::LowestIndex)
                    .run(&trial.bids)
                    .map_err(|e| format!("MinWork rejected the bids: {e}"))?;
                if outcome.schedule != expected.schedule {
                    return Err("schedule differs from centralized MinWork".into());
                }
                if outcome.payments != expected.payments {
                    return Err("payments differ from centralized MinWork".into());
                }
                Ok(())
            }
            (Kind::Chaos, Some(victim)) => match &run.result {
                RunResult::Completed(_) => Ok(()),
                RunResult::Degraded { excluded, .. } if excluded.iter().all(|&a| a == victim) => {
                    Ok(())
                }
                other => Err(format!("crash of agent {victim} ended {other:?}")),
            },
            (Kind::Blackout, _) => match &run.result {
                RunResult::Aborted { .. } if run.network.delivered == 0 => Ok(()),
                RunResult::Aborted { .. } => Err(format!(
                    "{} messages delivered in a dead network",
                    run.network.delivered
                )),
                other => Err(format!("expected Aborted, got {other:?}")),
            },
        }
    }
}
