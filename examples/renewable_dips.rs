//! Riding a renewable-supply dip: the same three-phase machinery that
//! boosts performance can hold *normal* performance when the supply-side
//! budget shrinks — the paper's motivation cites the "increasing reliance
//! on the intermittent renewable power supplies".
//!
//! We model a solar-assisted facility whose effective breaker budget drops
//! (a cloud bank passes) by shrinking the DC headroom to zero, while the
//! demand stays at its normal peak: without the ESDs the facility would
//! have to shed load; with them it rides through.
//!
//! ```text
//! cargo run --release --example renewable_dips
//! ```

use datacenter_sprinting::core::{ControllerConfig, Greedy, SprintController};
use datacenter_sprinting::power::DataCenterSpec;
use datacenter_sprinting::units::{Ratio, Seconds};

fn main() {
    // A facility provisioned with zero DC-level headroom: the grid feed is
    // sized exactly to the peak normal load (the aggressive end of the
    // paper's 0-20% sweep) - think of the missing headroom as the slice a
    // renewable feed normally covers.
    let spec = DataCenterSpec::paper_default().with_dc_headroom(Ratio::ZERO);
    let config = ControllerConfig::default();
    let mut controller = SprintController::new(&spec, &config, Box::new(Greedy));

    // Demand bursts to 1.4x right as the facility is at its tightest.
    let dt = Seconds::new(1.0);
    println!("  time    demand  served  on-battery  phase");
    for step in 0..900 {
        let t = f64::from(step);
        let demand = if (120.0..720.0).contains(&t) {
            1.4
        } else {
            0.95
        };
        let record = controller.step(demand, dt);
        assert!(!record.tripped, "ESD coordination must prevent trips");
        if step % 60 == 0 {
            println!(
                "  {:>5}s  {:>6.2}  {:>6.2}  {:>10}  {}",
                step,
                record.demand,
                record.served,
                controller.facility().ups().status().on_battery,
                record.phase
            );
        }
    }
    println!(
        "\nwith zero headroom the breakers alone cannot even carry a 1.4x burst; \
         the UPS fleet absorbs the difference ({} of charge spent)",
        controller.facility().ups().discharged_fraction()
    );
}
