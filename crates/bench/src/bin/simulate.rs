//! Config-driven simulation runner: the entry point a downstream operator
//! would use to evaluate their own facility and workload without writing
//! Rust.
//!
//! ```text
//! cargo run --release -p dcs-bench --bin simulate -- <config.json> [out.json] [--resume <dir>]
//! cargo run --release -p dcs-bench --bin simulate -- --print-default-config
//! ```
//!
//! The config selects the facility, the controller settings, a workload
//! (a named synthetic trace or inline samples) and a strategy; the binary
//! prints a run summary and, optionally, writes the full per-step
//! telemetry as JSON. With `--resume <dir>`, the long searches behind the
//! Oracle and Prediction strategies run supervised and checkpointed under
//! that directory: a killed run resumes from its last intact snapshot.
//!
//! Failures exit with a distinct code per error class: 2 for CLI usage,
//! 3 for config errors, 4 for I/O, 5 for physics (trace/table/unit), and
//! 6 for harness failures (exhausted retries, unusable checkpoints).

use dcs_core::{ControllerConfig, FixedBound, Greedy, Heuristic, Prediction, SprintStrategy};
use dcs_faults::FaultSchedule;
use dcs_power::DataCenterSpec;
use dcs_sim::{
    build_upper_bound_table_resumable, oracle_checkpoint_store, oracle_search,
    oracle_search_resumable, run_no_sprint_with_faults, run_with_faults, table_checkpoint_store,
    OracleMode, RetryPolicy, Scenario, SimError, SimResult, Supervisor,
};
use dcs_units::{Ratio, Seconds};
use dcs_workload::{ms_trace, yahoo_trace, Estimate, Trace};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// The workload section of a config.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum WorkloadConfig {
    /// The reconstructed MS trace.
    MsTrace {
        /// Noise seed.
        seed: u64,
    },
    /// A Yahoo-style trace with one injected burst.
    YahooBurst {
        /// Noise seed.
        seed: u64,
        /// Burst degree (normalized demand).
        degree: f64,
        /// Burst duration in minutes.
        minutes: f64,
    },
    /// Inline demand samples at a fixed step.
    Inline {
        /// Step length in seconds.
        step_secs: f64,
        /// Normalized demand samples.
        samples: Vec<f64>,
    },
}

/// The strategy section of a config.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum StrategyConfig {
    /// The Greedy strategy.
    Greedy,
    /// A constant degree bound.
    FixedBound {
        /// The bound (≥ 1).
        bound: f64,
    },
    /// Oracle: exhaustive offline search (slow — one run per grid point).
    Oracle,
    /// Heuristic with an estimated best average degree.
    Heuristic {
        /// The `SDe_p` estimate.
        sde_p: f64,
        /// Flexibility factor `K` (fraction; the paper uses 0.10).
        flexibility: f64,
    },
    /// Prediction with a predicted burst duration and an auto-built table.
    Prediction {
        /// Predicted burst duration in minutes.
        minutes: f64,
    },
}

/// A full simulation config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulateConfig {
    /// PDU count (the paper's facility has 900).
    pub pdus: usize,
    /// Servers per PDU (200 in the paper).
    pub servers_per_pdu: usize,
    /// DC-level headroom as a percent (10 in the paper).
    pub dc_headroom_percent: f64,
    /// Facility PUE (1.53 in the paper).
    pub pue: f64,
    /// Controller settings (`null` for the paper defaults).
    pub controller: Option<ControllerConfig>,
    /// The workload to serve.
    pub workload: WorkloadConfig,
    /// The sprinting-degree strategy.
    pub strategy: StrategyConfig,
    /// Optional fault schedule injected into the run (and the no-sprint
    /// baseline). Omit or `null` for an intact facility.
    #[serde(default)]
    pub faults: Option<FaultSchedule>,
}

impl SimulateConfig {
    /// Validates everything checkable without building the facility or
    /// running anything. Called before *any* side effect — in particular
    /// before `--resume` creates a checkpoint directory — so a config
    /// error (exit 3) never leaves an empty resume directory behind.
    fn validate(&self) -> Result<(), SimError> {
        if self.pdus == 0 {
            return Err(SimError::config("pdus must be at least 1"));
        }
        if self.servers_per_pdu == 0 {
            return Err(SimError::config("servers_per_pdu must be at least 1"));
        }
        if !self.pue.is_finite() || self.pue < 1.0 {
            return Err(SimError::config(format!(
                "pue must be a finite number >= 1 (got {})",
                self.pue
            )));
        }
        if !self.dc_headroom_percent.is_finite() || self.dc_headroom_percent < 0.0 {
            return Err(SimError::config(format!(
                "dc_headroom_percent must be finite and non-negative (got {})",
                self.dc_headroom_percent
            )));
        }
        if let WorkloadConfig::YahooBurst {
            degree, minutes, ..
        } = &self.workload
        {
            for (name, value) in [("degree", degree), ("minutes", minutes)] {
                if !value.is_finite() || *value < 0.0 {
                    return Err(SimError::config(format!(
                        "yahoo_burst {name} must be finite and non-negative (got {value})"
                    )));
                }
            }
        }
        let faults = self.faults.clone().unwrap_or_else(FaultSchedule::none);
        faults.validate().map_err(SimError::faults)?;
        match &self.strategy {
            StrategyConfig::FixedBound { bound } => {
                if *bound < 1.0 {
                    return Err(SimError::config("fixed bound must be at least 1"));
                }
            }
            StrategyConfig::Oracle => {
                if !faults.is_empty() {
                    return Err(SimError::config(
                        "the oracle search does not support fault schedules; \
                         pick a concrete strategy",
                    ));
                }
            }
            StrategyConfig::Heuristic { sde_p, flexibility } => {
                if !sde_p.is_finite() || *sde_p <= 0.0 {
                    return Err(SimError::config(format!(
                        "heuristic sde_p must be finite and positive (got {sde_p})"
                    )));
                }
                if !flexibility.is_finite() || *flexibility < 0.0 {
                    return Err(SimError::config(format!(
                        "heuristic flexibility must be finite and non-negative \
                         (got {flexibility})"
                    )));
                }
            }
            StrategyConfig::Prediction { minutes } => {
                if !minutes.is_finite() || *minutes <= 0.0 {
                    return Err(SimError::config(format!(
                        "prediction minutes must be finite and positive (got {minutes})"
                    )));
                }
            }
            StrategyConfig::Greedy => {}
        }
        Ok(())
    }

    fn example() -> SimulateConfig {
        SimulateConfig {
            pdus: 4,
            servers_per_pdu: 200,
            dc_headroom_percent: 10.0,
            pue: 1.53,
            controller: None,
            workload: WorkloadConfig::YahooBurst {
                seed: 1,
                degree: 3.2,
                minutes: 15.0,
            },
            strategy: StrategyConfig::Greedy,
            faults: None,
        }
    }
}

fn build_trace(w: &WorkloadConfig) -> Result<Trace, SimError> {
    match w {
        WorkloadConfig::MsTrace { seed } => Ok(ms_trace::generate(*seed)),
        WorkloadConfig::YahooBurst {
            seed,
            degree,
            minutes,
        } => Ok(yahoo_trace::with_burst(
            *seed,
            *degree,
            Seconds::from_minutes(*minutes),
        )),
        WorkloadConfig::Inline { step_secs, samples } => {
            Trace::new(Seconds::new(*step_secs), samples.clone()).map_err(SimError::from)
        }
    }
}

/// The standard durations/degrees axes the Prediction strategy's table
/// is built over (the paper's Table II grid).
const TABLE_DURATIONS_MIN: [f64; 6] = [1.0, 5.0, 10.0, 15.0, 20.0, 30.0];
const TABLE_DEGREES: [f64; 5] = [2.0, 2.5, 3.0, 3.5, 4.0];

/// Supervision used when `--resume` is in effect: retry transient
/// per-item failures a couple of times with a short backoff before
/// giving up with a typed harness error.
fn resume_supervisor() -> Supervisor {
    Supervisor::new().with_retry(RetryPolicy::attempts(3))
}

fn run_config(
    config: &SimulateConfig,
    resume_dir: Option<&str>,
) -> Result<(SimResult, SimResult), SimError> {
    // All pure config checks run before anything touches the filesystem:
    // a bad config with `--resume` must not create the checkpoint dir.
    config.validate()?;
    let spec = DataCenterSpec::paper_default()
        .with_scale(config.pdus, config.servers_per_pdu)
        .with_dc_headroom(Ratio::from_percent(config.dc_headroom_percent))
        .with_pue(config.pue);
    let controller = config.controller.clone().unwrap_or_default();
    let trace = build_trace(&config.workload)?;
    let scenario = Scenario::new(spec.clone(), controller.clone(), trace);
    let faults = config.faults.clone().unwrap_or_else(FaultSchedule::none);
    let baseline = run_no_sprint_with_faults(&scenario, &faults);
    let run = |strategy: Box<dyn SprintStrategy>| run_with_faults(&scenario, strategy, &faults);

    let result = match &config.strategy {
        StrategyConfig::Greedy => run(Box::new(Greedy)),
        StrategyConfig::FixedBound { bound } => run(Box::new(FixedBound::new(Ratio::new(*bound)))),
        StrategyConfig::Oracle => match resume_dir {
            Some(dir) => {
                let mut store =
                    oracle_checkpoint_store(dir, &scenario, &faults, OracleMode::Pruned)?;
                let (outcome, _stats) = oracle_search_resumable(
                    &scenario,
                    &faults,
                    OracleMode::Pruned,
                    &resume_supervisor(),
                    &mut store,
                )?;
                outcome.best
            }
            None => oracle_search(&scenario).best,
        },
        StrategyConfig::Heuristic { sde_p, flexibility } => run(Box::new(Heuristic::new(
            Estimate::exact(*sde_p),
            *flexibility,
        ))),
        StrategyConfig::Prediction { minutes } => {
            let table = match resume_dir {
                Some(dir) => {
                    let mut store = table_checkpoint_store(
                        dir,
                        &spec,
                        &controller,
                        &TABLE_DURATIONS_MIN,
                        &TABLE_DEGREES,
                        OracleMode::Pruned,
                    )?;
                    let (table, _stats) = build_upper_bound_table_resumable(
                        &spec,
                        &controller,
                        &TABLE_DURATIONS_MIN,
                        &TABLE_DEGREES,
                        OracleMode::Pruned,
                        &resume_supervisor(),
                        &mut store,
                    )?;
                    table
                }
                None => dcs_sim::build_upper_bound_table(
                    &spec,
                    &controller,
                    &TABLE_DURATIONS_MIN,
                    &TABLE_DEGREES,
                ),
            };
            run(Box::new(Prediction::new(
                Estimate::exact(minutes * 60.0),
                table,
            )))
        }
    };
    Ok((result, baseline))
}

/// CLI arguments after flag extraction.
struct CliArgs {
    config_path: String,
    out_path: Option<String>,
    resume_dir: Option<String>,
}

const USAGE: &str =
    "usage: simulate <config.json> [out.json] [--resume <dir>] | --print-default-config";

fn parse_args(args: &[String]) -> Result<Option<CliArgs>, String> {
    if args.first().map(String::as_str) == Some("--print-default-config") {
        return Ok(None);
    }
    let mut positional: Vec<&String> = Vec::new();
    let mut resume_dir: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--resume" {
            match iter.next() {
                Some(dir) => resume_dir = Some(dir.clone()),
                None => return Err("--resume requires a directory argument".into()),
            }
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag: {arg}"));
        } else {
            positional.push(arg);
        }
    }
    match positional.as_slice() {
        [] => Err("missing config path".into()),
        [config] => Ok(Some(CliArgs {
            config_path: (*config).clone(),
            out_path: None,
            resume_dir,
        })),
        [config, out] => Ok(Some(CliArgs {
            config_path: (*config).clone(),
            out_path: Some((*out).clone()),
            resume_dir,
        })),
        _ => Err("too many positional arguments".into()),
    }
}

fn load_config(path: &str) -> Result<SimulateConfig, SimError> {
    let text = std::fs::read_to_string(path).map_err(|e| SimError::io(path, e.to_string()))?;
    serde_json::from_str(&text)
        .map_err(|e| SimError::config(format!("malformed config {path}: {e}")))
}

fn real_main(cli: &CliArgs) -> Result<(), SimError> {
    let config = load_config(&cli.config_path)?;
    let (result, baseline) = run_config(&config, cli.resume_dir.as_deref())?;

    println!("strategy:            {}", result.strategy);
    println!("average performance: {:.3}", result.average_performance());
    println!("burst performance:   {:.3}", result.burst_performance(1.0));
    println!(
        "improvement:         {:.3}x (burst window {:.3}x)",
        result.improvement_over(&baseline),
        result.burst_improvement_over(&baseline, 1.0),
    );
    println!(
        "dropped requests:    {:.1}%",
        result.admission.drop_fraction() * 100.0
    );
    let (cb, ups, tes) = result.energy_shares();
    println!(
        "energy split:        CB {:.0}% / UPS {:.0}% / TES {:.0}%",
        cb * 100.0,
        ups * 100.0,
        tes * 100.0
    );
    println!(
        "safety:              tripped={} overheated={}",
        result.any_tripped(),
        result.any_overheated()
    );

    if let Some(out) = &cli.out_path {
        let json = serde_json::to_string(&result)
            .map_err(|e| SimError::config(format!("failed to serialize results: {e}")))?;
        std::fs::write(out, json).map_err(|e| SimError::io(out, e.to_string()))?;
        println!("full telemetry written to {out}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            match serde_json::to_string_pretty(&SimulateConfig::example()) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("simulate: failed to serialize default config: {e}");
                    return ExitCode::from(SimError::config(e.to_string()).exit_code());
                }
            }
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("simulate: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("simulate: {err}");
            ExitCode::from(err.exit_code())
        }
    }
}
