//! The user-borne cost of native tracking.
//!
//! §3.1: "such unsolicited network traffic consumes system resources and
//! energy from the user's device" (citing the hidden-cost-of-mobile-ads
//! literature), and §3.1 again on Figure 4: "such unsolicited and
//! unnecessary traffic can have considerable impact on the user's data
//! plan and performance." This module turns the captured native flows
//! into those two user-facing quantities:
//!
//! * **data-plan cost** — native bytes on the wire (both directions),
//!   normalized per 1000 page visits;
//! * **radio energy** — a deliberately coarse first-order model: every
//!   flow pays a fixed radio-burst overhead (wakeup + tail) plus a
//!   per-byte transfer cost. Real radios batch transfers, so treating
//!   each flow as a burst is an upper bound; the *relative* ordering
//!   across browsers is the meaningful output.

use panoptes_mitm::{Flow, FlowClass};

/// First-order radio energy model.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// Joules charged per transfer burst (radio promotion + tail).
    pub joules_per_burst: f64,
    /// Joules per transferred byte.
    pub joules_per_byte: f64,
}

impl EnergyModel {
    /// A Wi-Fi-ish model: cheap bursts, cheap bytes.
    pub fn wifi() -> EnergyModel {
        EnergyModel { joules_per_burst: 0.1, joules_per_byte: 4.0e-8 }
    }

    /// An LTE-ish model: expensive bursts (long radio tail), pricier
    /// bytes — where the paper's data-plan/energy concern bites hardest.
    pub fn lte() -> EnergyModel {
        EnergyModel { joules_per_burst: 1.2, joules_per_byte: 2.0e-7 }
    }

    /// Energy of `flows` transfers moving `bytes` in total.
    pub fn energy_joules(&self, flows: u64, bytes: u64) -> f64 {
        flows as f64 * self.joules_per_burst + bytes as f64 * self.joules_per_byte
    }
}

/// One browser's cost row.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Browser name.
    pub browser: String,
    /// Pages visited in the campaign.
    pub visits: usize,
    /// Native flows captured.
    pub native_flows: u64,
    /// Native bytes on the wire, both directions.
    pub native_bytes: u64,
    /// Extra data-plan megabytes per 1000 page visits.
    pub mb_per_1000_pages: f64,
    /// Extra radio energy per 1000 page visits (the supplied model), in
    /// joules.
    pub joules_per_1000_pages: f64,
}

/// Accumulator form of the cost detector: native flows and their bytes
/// in both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostPartial {
    native_flows: u64,
    native_bytes: u64,
}

impl CostPartial {
    /// Folds one captured flow into the accumulator.
    pub fn observe(&mut self, flow: &Flow) {
        if flow.class == FlowClass::Native {
            self.native_flows += 1;
            self.native_bytes += flow.bytes_out + flow.bytes_in;
        }
    }

    /// Finalises the browser's cost row under `model`.
    pub fn finish(self, browser: &str, visits: usize, model: &EnergyModel) -> CostRow {
        let scale = 1000.0 / visits.max(1) as f64;
        CostRow {
            browser: browser.to_string(),
            visits,
            native_flows: self.native_flows,
            native_bytes: self.native_bytes,
            mb_per_1000_pages: self.native_bytes as f64 * scale / 1_048_576.0,
            joules_per_1000_pages: model.energy_joules(self.native_flows, self.native_bytes)
                * scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::campaign::run_crawl;
    use panoptes::config::CampaignConfig;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes::campaign::CampaignResult;
    use panoptes_web::World;

    use crate::engine::{analyze_crawl, AnalysisResources};

    fn crawl(name: &str) -> CampaignResult {
        let world =
            World::build(&GeneratorConfig { popular: 6, sensitive: 4, ..Default::default() });
        run_crawl(
            &world,
            &profile_by_name(name).unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        )
    }

    #[test]
    fn chatty_browsers_cost_more_than_quiet_ones() {
        let res = AnalysisResources::standard();
        let qq = analyze_crawl(&crawl("QQ"), &res).cost;
        let brave = analyze_crawl(&crawl("Brave"), &res).cost;
        // Brave's few startup fetches pull sizable static responses, so
        // the gap is in multiples, not orders of magnitude, at this
        // scale — the per-visit chatter is what grows with browsing.
        assert!(qq.native_bytes > brave.native_bytes * 3, "{} vs {}", qq.native_bytes, brave.native_bytes);
        assert!(qq.native_flows > brave.native_flows * 20);
        assert!(qq.joules_per_1000_pages > brave.joules_per_1000_pages);
        assert!(qq.mb_per_1000_pages > 1.0, "QQ costs real megabytes: {}", qq.mb_per_1000_pages);
    }

    #[test]
    fn lte_costs_more_than_wifi() {
        let result = crawl("Edge");
        let wifi = AnalysisResources { energy: EnergyModel::wifi(), ..AnalysisResources::standard() };
        let wifi = analyze_crawl(&result, &wifi).cost;
        let lte = analyze_crawl(&result, &AnalysisResources::standard()).cost;
        assert!(lte.joules_per_1000_pages > wifi.joules_per_1000_pages * 5.0);
        // Data volume is radio-independent.
        assert_eq!(wifi.mb_per_1000_pages, lte.mb_per_1000_pages);
    }

    #[test]
    fn energy_model_arithmetic() {
        let m = EnergyModel { joules_per_burst: 2.0, joules_per_byte: 0.001 };
        assert_eq!(m.energy_joules(3, 1000), 7.0);
        assert_eq!(m.energy_joules(0, 0), 0.0);
    }
}
