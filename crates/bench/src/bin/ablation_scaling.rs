//! Ablation: the throughput-scaling model (the `DESIGN.md`-flagged
//! calibration choice).
//!
//! The paper's SPECjbb2005 observation — per-core throughput falls as
//! cores are added — is what makes constrained sprinting degrees pay off.
//! This ablation sweeps the scaling model and shows the Oracle-vs-Greedy
//! gap collapsing as scaling approaches linear (with ideal linear scaling,
//! serving X extra demand always costs proportional extra power, so
//! constraining the degree buys nothing).

use dcs_bench::{print_header, print_row};
use dcs_core::{ControllerConfig, Greedy};
use dcs_power::DataCenterSpec;
use dcs_server::{ScalingModel, ServerSpec};
use dcs_sim::{oracle_search, run, run_no_sprint, Scenario};
use dcs_units::Seconds;
use dcs_workload::yahoo_trace;

/// Facility scale from the CLI: `ablation_scaling [PDUS SERVERS_PER_PDU]`,
/// defaulting to the paper-scale 4×200 facility. A larger scale lets the
/// ablation ride the hyperscale configurations the `bench` binary exercises.
fn scale_from_args() -> (usize, usize) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => (4, 200),
        [pdus, servers] => {
            let parse = |s: &String, what: &str| -> usize {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("error: {what} must be a positive integer, got `{s}`");
                    std::process::exit(2);
                })
            };
            let scale = (parse(pdus, "PDUS"), parse(servers, "SERVERS_PER_PDU"));
            if scale.0 == 0 || scale.1 == 0 {
                eprintln!("error: scale must be non-zero");
                std::process::exit(2);
            }
            scale
        }
        _ => {
            eprintln!("usage: ablation_scaling [PDUS SERVERS_PER_PDU]");
            std::process::exit(2);
        }
    }
}

fn main() {
    let (pdus, servers_per_pdu) = scale_from_args();
    println!("# Ablation — throughput scaling vs the value of constrained sprinting\n");
    println!(
        "(Yahoo burst: degree 3.2, 15 minutes; scale {pdus} PDUs x {servers_per_pdu} servers)\n"
    );
    print_header(&[
        "scaling model",
        "full-sprint capacity",
        "Greedy",
        "Oracle",
        "Oracle bound",
        "Oracle gain",
    ]);

    let models: Vec<(String, ScalingModel)> = vec![
        ("linear".into(), ScalingModel::Linear),
        (
            "power law a=0.9".into(),
            ScalingModel::PowerLaw { alpha: 0.9 },
        ),
        ("power law a=0.75 (default)".into(), ScalingModel::default()),
        (
            "power law a=0.6".into(),
            ScalingModel::PowerLaw { alpha: 0.6 },
        ),
        (
            "Amdahl s=0.05".into(),
            ScalingModel::Amdahl {
                serial_fraction: 0.05,
            },
        ),
    ];

    for (name, model) in models {
        let server = ServerSpec::paper_default().with_scaling(model);
        let capacity = server.capacity_at_cores(48);
        let spec = DataCenterSpec::paper_default()
            .with_scale(pdus, servers_per_pdu)
            .with_server(server);
        let scenario = Scenario::new(
            spec,
            ControllerConfig::default(),
            yahoo_trace::with_burst(1, 3.2, Seconds::from_minutes(15.0)),
        );
        let base = run_no_sprint(&scenario);
        let greedy = run(&scenario, Box::new(Greedy)).burst_improvement_over(&base, 1.0);
        let oracle = oracle_search(&scenario);
        let o = oracle.best.burst_improvement_over(&base, 1.0);
        print_row(&[
            name,
            format!("{capacity:.2}x"),
            format!("{greedy:.3}"),
            format!("{o:.3}"),
            format!("{:.2}", oracle.best_bound.as_f64()),
            format!("{:+.1}%", (o / greedy - 1.0) * 100.0),
        ]);
    }
}
