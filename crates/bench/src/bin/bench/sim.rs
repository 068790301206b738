//! The `sim` and `hyperscale` sections: the planner's run/oracle/table
//! hot paths on the canonical 4×200 plant and on a ~1M-core facility,
//! each timed while asserting it reproduces its reference path.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use dcs_core::{ControllerConfig, FixedBound, Greedy, UpperBoundTable};
use dcs_faults::FaultSchedule;
use dcs_power::DataCenterSpec;
use dcs_server::{ChipSpec, ScalingModel, ServerSpec};
use dcs_sim::simd::{fold_span_group, record_delta, F64x4};
use dcs_sim::{
    build_upper_bound_table_resumable, build_upper_bound_table_stats,
    build_upper_bound_table_unbatched, degree_grid, machine_parallelism, oracle_search_stats,
    oracle_search_unbatched, run, run_bound_batch, run_summary_with_faults, table_checkpoint_store,
    with_worker_budget, BatchStats, OracleMode, Scenario, SimError, Supervisor, TableBuildStats,
};
use dcs_units::{Power, Seconds};
use dcs_workload::yahoo_trace;
use serde::{Deserialize, Serialize};

use crate::time_ms;

/// Best-of-N repetitions for the single-run sections.
const ITERS_RUN: u32 = 25;
/// Best-of-N repetitions for the Oracle searches.
const ITERS_ORACLE: u32 = 5;
/// Best-of-N repetitions for the table builds.
const ITERS_TABLE: u32 = 2;
/// Best-of-N repetitions for the span-fold pair (microseconds each).
const ITERS_FOLD: u32 = 200;
/// Lanes in the span-fold pair: the size of the default degree grid.
const FOLD_LANES: usize = 66;
/// Steps in the span-fold pair: one 30-minute trace at 1 s.
const FOLD_STEPS: usize = 1800;
/// Re-timing rounds the supervised build gets before its overhead gate
/// is judged; a busy neighbour can inflate one timing loop alone.
const SUPERVISED_RETIME_ROUNDS: u32 = 4;

/// Lane-step accounting from the batched engine.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LaneSteps {
    /// Lanes submitted (one per requested bound).
    pub lanes: usize,
    /// Lanes actually simulated after saturation dedup.
    pub unique_lanes: usize,
    /// Controller steps executed on live lanes.
    pub live: u64,
    /// Steps resolved by the arithmetic quiet-tail fold instead.
    pub folded: u64,
}

impl From<BatchStats> for LaneSteps {
    fn from(s: BatchStats) -> LaneSteps {
        LaneSteps {
            lanes: s.lanes,
            unique_lanes: s.unique_lanes,
            live: s.live_lane_steps,
            folded: s.folded_lane_steps,
        }
    }
}

/// One timed hot path.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Section {
    /// Wall-clock milliseconds, best of `iters`.
    pub time_ms: f64,
    /// Timed repetitions.
    pub iters: u32,
    /// Work count: controller steps for the single-run sections,
    /// evaluated simulation runs everywhere else.
    pub sim_runs: usize,
    /// Batched-engine lane-step split; `null` for paths that do not go
    /// through the batched engine.
    pub lane_steps: Option<LaneSteps>,
}

impl Section {
    fn new(time_ms: f64, iters: u32, sim_runs: usize, lane_steps: Option<BatchStats>) -> Section {
        Section {
            time_ms,
            iters,
            sim_runs,
            lane_steps: lane_steps.map(LaneSteps::from),
        }
    }
}

/// The grouped `F64x4` span fold against the scalar per-lane fold it
/// replaces, on the same span and lanes.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FoldPair {
    /// Lane accumulators folded.
    pub lanes: usize,
    /// Steps in the span.
    pub steps: usize,
    /// `fold_span_group` over every lane at once, best-of-N ms.
    pub grouped_ms: f64,
    /// Each lane re-deriving every step's delta itself, best-of-N ms.
    pub scalar_ms: f64,
    /// `scalar_ms / grouped_ms`.
    pub speedup: f64,
    /// Timed repetitions of each side.
    pub iters: u32,
}

/// The canonical 4×200 plant, Yahoo trace with a 3.2×/15-min burst.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// PDUs in the canonical plant.
    pub pdus: usize,
    /// Servers per PDU.
    pub servers_per_pdu: usize,
    /// Every batched result (Oracle both modes, fault-free and faulted;
    /// the table; `run_bound_batch` lanes under faults) reproduced its
    /// independent per-lane runs.
    pub batched_equals_independent: bool,
    /// A table build killed at its first snapshot resumed to the plain
    /// batched table.
    pub kill_resume_reproduces_table: bool,
    /// The Oracle's best bound on the canonical trace.
    pub best_bound: f64,
    /// 30-min Greedy run, full records.
    pub run_full: Section,
    /// 30-min Greedy run, summary only.
    pub run_lean: Section,
    /// Batched Oracle over the whole degree grid.
    pub oracle_exhaustive: Section,
    /// Batched Oracle, pruned.
    pub oracle_pruned: Section,
    /// Pruned Oracle as independent per-lane runs.
    pub oracle_pruned_unbatched: Section,
    /// Batched table build over the whole grid.
    pub table_exhaustive: Section,
    /// Batched table build, pruned.
    pub table_pruned: Section,
    /// Pruned table build as independent per-cell scans.
    pub table_pruned_unbatched: Section,
    /// The pruned table under panic isolation and periodic checkpoints.
    pub table_pruned_supervised: Section,
    /// `table_pruned_supervised / table_pruned - 1`.
    pub supervised_table_overhead: f64,
    /// The grouped-vs-scalar span fold.
    pub fold_span: FoldPair,
}

/// One point of the hyperscale table build's worker-budget sweep.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadPoint {
    /// The worker budget forced via `with_worker_budget`.
    pub workers: usize,
    /// Best wall-clock milliseconds for the batched table build.
    pub table_ms: f64,
}

/// The same hot paths on thousands of PDUs of dense accelerator nodes.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HyperscaleReport {
    /// PDU count.
    pub pdus: usize,
    /// Dense nodes per PDU.
    pub servers_per_pdu: usize,
    /// Cores per chip.
    pub cores_per_chip: u32,
    /// Total cores across the facility.
    pub total_cores: u64,
    /// Peak normal IT power in megawatts.
    pub peak_normal_it_mw: f64,
    /// The pruned Oracle reproduced its independent per-lane runs.
    pub batched_equals_independent: bool,
    /// The table came out identical under every swept worker budget.
    pub thread_count_invariant: bool,
    /// 30-min lean Greedy run.
    pub run_lean: Section,
    /// Batched pruned Oracle.
    pub oracle_pruned: Section,
    /// Batched pruned table build at the default worker budget.
    pub table_pruned: Section,
    /// The table build under forced worker budgets (1, 2, and the host's
    /// budget when larger).
    pub thread_scaling: Vec<ThreadPoint>,
    /// The host's worker budget (`machine_parallelism`).
    pub host_workers: usize,
    /// `t(1) / (N · t(N))` with `N = host_workers`.
    pub parallel_efficiency: f64,
}

/// The table grid every section builds.
struct Grid {
    durations: Vec<f64>,
    degrees: Vec<f64>,
}

impl Grid {
    fn canonical() -> Grid {
        Grid {
            durations: vec![1.0, 5.0, 10.0, 15.0, 30.0],
            degrees: vec![1.5, 2.0, 3.0, 4.0],
        }
    }

    fn build(
        &self,
        spec: &DataCenterSpec,
        config: &ControllerConfig,
        mode: OracleMode,
    ) -> (UpperBoundTable, TableBuildStats) {
        build_upper_bound_table_stats(spec, config, &self.durations, &self.degrees, mode)
    }

    /// One supervised, checkpointed pruned build rooted at `dir`, which
    /// must not hold snapshots yet; `kill_after` arms the store's kill
    /// hook.
    fn build_supervised(
        &self,
        spec: &DataCenterSpec,
        config: &ControllerConfig,
        dir: &Path,
        kill_after: Option<u64>,
    ) -> Result<(UpperBoundTable, TableBuildStats), SimError> {
        let (d, g) = (&self.durations, &self.degrees);
        let mut store = table_checkpoint_store(dir, spec, config, d, g, OracleMode::Pruned)?;
        if let Some(saves) = kill_after {
            store = store.with_kill_after(saves);
        }
        build_upper_bound_table_resumable(
            spec,
            config,
            d,
            g,
            OracleMode::Pruned,
            &Supervisor::new(),
            &mut store,
        )
    }
}

/// Unwraps a supervised step; any failure on the clean path is fatal.
fn expect_clean<T>(what: &str, result: Result<T, SimError>) -> T {
    result.unwrap_or_else(|err| {
        eprintln!("bench: {what} failed: {err}");
        std::process::exit(i32::from(err.exit_code()));
    })
}

fn burst_scenario(spec: &DataCenterSpec, config: &ControllerConfig) -> Scenario {
    Scenario::new(
        spec.clone(),
        config.clone(),
        yahoo_trace::with_burst(1, 3.2, Seconds::from_minutes(15.0)),
    )
}

/// Times every canonical hot path and asserts each against its
/// reference. `scratch` is a fresh directory for checkpoint snapshots.
pub fn sim_section(scratch: &Path) -> SimReport {
    let (pdus, servers) = (4, 200);
    let spec = DataCenterSpec::paper_default().with_scale(pdus, servers);
    let config = ControllerConfig::default();
    let scenario = burst_scenario(&spec, &config);
    let grid = Grid::canonical();
    let none = FaultSchedule::none();

    eprintln!("bench: sim: 30-min Greedy run (full vs lean)...");
    let (run_full_ms, full) = time_ms(ITERS_RUN, || run(&scenario, Box::new(Greedy)));
    let (run_lean_ms, lean) = time_ms(ITERS_RUN, || {
        run_summary_with_faults(&scenario, Box::new(Greedy), &none)
    });
    assert_eq!(
        lean,
        full.summarize(),
        "lean run diverged from the summarized full run"
    );
    let steps = full.records.len();

    eprintln!("bench: sim: oracle (batched vs unbatched, exhaustive vs pruned)...");
    let (oracle_ex_ms, (exhaustive, oracle_ex_stats)) = time_ms(ITERS_ORACLE, || {
        oracle_search_stats(&scenario, &none, OracleMode::Exhaustive)
    });
    let (oracle_pr_ms, (pruned, oracle_pr_stats)) = time_ms(ITERS_ORACLE, || {
        oracle_search_stats(&scenario, &none, OracleMode::Pruned)
    });
    let (oracle_un_ms, unbatched) = time_ms(ITERS_ORACLE, || {
        oracle_search_unbatched(&scenario, &none, OracleMode::Pruned)
    });
    assert_eq!(
        (pruned.best_bound, &pruned.best),
        (exhaustive.best_bound, &exhaustive.best),
        "pruned oracle diverged from exhaustive"
    );
    assert_eq!(
        pruned, unbatched,
        "batched pruned oracle diverged from the independent per-lane runs"
    );
    assert_eq!(
        exhaustive,
        oracle_search_unbatched(&scenario, &none, OracleMode::Exhaustive),
        "batched exhaustive oracle diverged from the independent per-lane runs"
    );
    let faults = FaultSchedule::random(11, scenario.trace().duration());
    for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
        assert_eq!(
            oracle_search_stats(&scenario, &faults, mode).0,
            oracle_search_unbatched(&scenario, &faults, mode),
            "batched {mode:?} oracle diverged from per-lane runs under faults"
        );
    }
    let bounds = degree_grid(&spec);
    let batch = run_bound_batch(&scenario, &bounds, &faults);
    for (bound, summary) in bounds.iter().zip(&batch.summaries) {
        assert_eq!(
            summary,
            &run_summary_with_faults(&scenario, Box::new(FixedBound::new(*bound)), &faults),
            "batched lane {bound:?} diverged from its independent run under faults"
        );
    }

    eprintln!("bench: sim: table build (batched vs unbatched, exhaustive vs pruned)...");
    let (table_ex_ms, (table_ex, table_ex_stats)) = time_ms(ITERS_TABLE, || {
        grid.build(&spec, &config, OracleMode::Exhaustive)
    });
    let (table_pr_ms, (table_pr, table_pr_stats)) = time_ms(ITERS_TABLE, || {
        grid.build(&spec, &config, OracleMode::Pruned)
    });
    let (table_un_ms, table_un) = time_ms(ITERS_TABLE, || {
        build_upper_bound_table_unbatched(
            &spec,
            &config,
            &grid.durations,
            &grid.degrees,
            OracleMode::Pruned,
        )
    });
    assert_eq!(table_pr, table_ex, "pruned table diverged from exhaustive");
    assert_eq!(table_pr, table_un, "batched table diverged from unbatched");

    eprintln!("bench: sim: supervised + checkpointed table build...");
    // Every timed build gets its own empty directory, so no iteration
    // ever reloads a snapshot an earlier one wrote.
    let mut builds = 0u32;
    let mut time_supervised = || {
        time_ms(ITERS_TABLE, || {
            builds += 1;
            let dir = scratch.join(format!("supervised-{builds}"));
            expect_clean(
                "the supervised table build",
                grid.build_supervised(&spec, &config, &dir, None),
            )
        })
    };
    let (mut table_sup_ms, (table_sup, table_sup_stats)) = time_supervised();
    assert_eq!(
        table_sup, table_pr,
        "supervised table diverged from the plain batched build"
    );
    let mut sup_iters = ITERS_TABLE;
    for _ in 0..SUPERVISED_RETIME_ROUNDS {
        if table_sup_ms / table_pr_ms - 1.0 <= crate::SUPERVISED_OVERHEAD_BUDGET {
            break;
        }
        eprintln!(
            "bench: sim: supervised overhead {:.1}% over budget; re-timing...",
            (table_sup_ms / table_pr_ms - 1.0) * 100.0
        );
        table_sup_ms = table_sup_ms.min(time_supervised().0);
        sup_iters += ITERS_TABLE;
    }

    eprintln!("bench: sim: kill/resume: killing the table build at its first snapshot...");
    let kill_dir = scratch.join("kill-resume");
    match grid.build_supervised(&spec, &config, &kill_dir, Some(1)) {
        Err(SimError::Interrupted { .. }) => {}
        Ok(_) => {
            eprintln!("bench: kill/resume: the kill-armed build finished without being killed");
            std::process::exit(1);
        }
        Err(other) => expect_clean("the kill-armed table build", Err(other)),
    }
    let (table_resumed, _) = expect_clean(
        "the resumed table build",
        grid.build_supervised(&spec, &config, &kill_dir, None),
    );
    assert_eq!(
        table_resumed, table_pr,
        "kill-and-resume table diverged from the plain batched build"
    );

    eprintln!("bench: sim: grouped vs scalar span fold...");
    let fold_span = fold_pair();

    SimReport {
        pdus,
        servers_per_pdu: servers,
        batched_equals_independent: true,
        kill_resume_reproduces_table: true,
        best_bound: pruned.best_bound.as_f64(),
        run_full: Section::new(run_full_ms, ITERS_RUN, steps, None),
        run_lean: Section::new(run_lean_ms, ITERS_RUN, steps, None),
        // One lane per grid point, plus the final full run.
        oracle_exhaustive: Section::new(
            oracle_ex_ms,
            ITERS_ORACLE,
            bounds.len() + 1,
            Some(oracle_ex_stats),
        ),
        // Lanes at the visited points, plus the final full run.
        oracle_pruned: Section::new(
            oracle_pr_ms,
            ITERS_ORACLE,
            pruned.tried.len() + 1,
            Some(oracle_pr_stats),
        ),
        oracle_pruned_unbatched: Section::new(
            oracle_un_ms,
            ITERS_ORACLE,
            pruned.tried.len() + 1,
            None,
        ),
        table_exhaustive: Section::new(
            table_ex_ms,
            ITERS_TABLE,
            table_ex_stats.evaluations,
            Some(table_ex_stats.batch),
        ),
        table_pruned: Section::new(
            table_pr_ms,
            ITERS_TABLE,
            table_pr_stats.evaluations,
            Some(table_pr_stats.batch),
        ),
        // One independent pruned scan per cell.
        table_pruned_unbatched: Section::new(
            table_un_ms,
            ITERS_TABLE,
            grid.durations.len() * grid.degrees.len(),
            None,
        ),
        table_pruned_supervised: Section::new(
            table_sup_ms,
            sup_iters,
            table_sup_stats.evaluations,
            Some(table_sup_stats.batch),
        ),
        supervised_table_overhead: table_sup_ms / table_pr_ms - 1.0,
        fold_span,
    }
}

/// Times `fold_span_group` against the scalar per-lane fold and asserts
/// every lane's integrals match bit for bit.
fn fold_pair() -> FoldPair {
    let dt = Seconds::new(1.0);
    let cap = 1.25;
    // Deterministic xorshift demand stream.
    let mut state = 0xBEEF_u64;
    let span: Vec<f64> = (0..FOLD_STEPS)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 3_000.0
        })
        .collect();
    let (grouped_ms, grouped) = time_ms(ITERS_FOLD, || {
        let mut accs = vec![F64x4::ZERO; FOLD_LANES];
        fold_span_group(&mut accs, black_box(&span), dt, cap);
        accs
    });
    let (scalar_ms, scalar) = time_ms(ITERS_FOLD, || {
        let mut accs = vec![[0.0f64; 3]; FOLD_LANES];
        for acc in &mut accs {
            for &demand in black_box(&span) {
                let (served_dt, demand_dt, _) = record_delta(demand, demand.min(cap), dt);
                acc[0] += served_dt;
                acc[1] += demand_dt;
                acc[2] += dt.as_secs();
            }
        }
        accs
    });
    for (lane, (g, s)) in grouped.iter().zip(&scalar).enumerate() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&g.0[..3]),
            bits(s),
            "grouped span fold diverged from the scalar fold on lane {lane}"
        );
    }
    FoldPair {
        lanes: FOLD_LANES,
        steps: FOLD_STEPS,
        grouped_ms,
        scalar_ms,
        speedup: scalar_ms / grouped_ms,
        iters: ITERS_FOLD,
    }
}

/// Re-runs the lean run, the pruned Oracle and the table build on
/// 2048 PDUs × 4 dense accelerator nodes (~1M cores), and sweeps the
/// table build across worker budgets.
pub fn hyperscale_section() -> HyperscaleReport {
    eprintln!("bench: hyperscale: dense accelerator-class facility...");
    let (pdus, servers) = (2048, 4);
    // An accelerator-class part: 128 cores, 60 W idle, 6.5 W per busy
    // core, in a 150 W-overhead node. Normal operation holds 32 cores, so
    // the max sprinting degree stays at the paper's 4× and the canonical
    // 3.2× burst trace carries over.
    let chip = ChipSpec::new(128, Power::from_watts(60.0), Power::from_watts(6.5));
    let total_cores = u64::from(chip.cores()) * (pdus * servers) as u64;
    let server = ServerSpec::new(
        chip.clone(),
        Power::from_watts(150.0),
        32,
        ScalingModel::default(),
    );
    let spec = DataCenterSpec::paper_default()
        .with_server(server)
        .with_scale(pdus, servers);
    let peak_normal_it_mw =
        (spec.server().peak_normal_power() * spec.total_servers() as f64).as_watts() / 1e6;
    let config = ControllerConfig::default();
    let scenario = burst_scenario(&spec, &config);
    let grid = Grid::canonical();
    let none = FaultSchedule::none();

    let (run_ms, _) = time_ms(ITERS_ORACLE, || {
        run_summary_with_faults(&scenario, Box::new(Greedy), &none)
    });
    let (oracle_ms, (pruned, oracle_stats)) = time_ms(ITERS_ORACLE, || {
        oracle_search_stats(&scenario, &none, OracleMode::Pruned)
    });
    assert_eq!(
        pruned,
        oracle_search_unbatched(&scenario, &none, OracleMode::Pruned),
        "hyperscale batched pruned oracle diverged from independent per-lane runs"
    );
    let (table_ms, (table, table_stats)) = time_ms(ITERS_TABLE, || {
        grid.build(&spec, &config, OracleMode::Pruned)
    });

    let host_workers = machine_parallelism();
    let mut sweep = vec![1usize, 2];
    if host_workers > 2 {
        sweep.push(host_workers);
    }
    let thread_scaling: Vec<ThreadPoint> = sweep
        .into_iter()
        .map(|workers| {
            let (ms, (table_w, _)) = with_worker_budget(workers, || {
                time_ms(ITERS_TABLE, || {
                    grid.build(&spec, &config, OracleMode::Pruned)
                })
            });
            assert_eq!(
                table_w, table,
                "hyperscale table diverged under a {workers}-worker budget"
            );
            ThreadPoint {
                workers,
                table_ms: ms,
            }
        })
        .collect();
    let t1 = thread_scaling[0].table_ms;
    let tn = thread_scaling
        .iter()
        .find(|p| p.workers == host_workers)
        .map_or(t1, |p| p.table_ms);

    HyperscaleReport {
        pdus,
        servers_per_pdu: servers,
        cores_per_chip: chip.cores(),
        total_cores,
        peak_normal_it_mw,
        batched_equals_independent: true,
        thread_count_invariant: true,
        run_lean: Section::new(run_ms, ITERS_ORACLE, scenario.trace().len(), None),
        oracle_pruned: Section::new(
            oracle_ms,
            ITERS_ORACLE,
            pruned.tried.len() + 1,
            Some(oracle_stats),
        ),
        table_pruned: Section::new(
            table_ms,
            ITERS_TABLE,
            table_stats.evaluations,
            Some(table_stats.batch),
        ),
        thread_scaling,
        host_workers,
        parallel_efficiency: t1 / (host_workers as f64 * tn),
    }
}

/// A fresh, empty checkpoint root for one `bench` process.
pub fn fresh_scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcs-bench-ckpt-{}", std::process::id()));
    // A leftover from an earlier process with the same pid must not hand
    // the supervised builds complete snapshots.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
