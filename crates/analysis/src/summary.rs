//! Machine-readable study summary: every analysis result as one JSON
//! document, for downstream tooling (plotting, dashboards, regression
//! tracking across crawls).
//!
//! The document is rendered from [`StudyAnalyses`] — the fused engine's
//! per-campaign products — so building it costs one pass over each
//! capture.

use panoptes::campaign::CampaignResult;
use panoptes::idle::IdleResult;
use panoptes_http::json::{self, Value};
use panoptes_simnet::clock::SimDuration;

use crate::dns::ObservedResolver;
use crate::engine::{analyze_study, AnalysisResources, StudyAnalyses};

/// The Figure 5 bucket width the JSON document renders timelines at.
const IDLE_BUCKET: SimDuration = SimDuration::from_secs(30);

/// Renders a study's analyses as one JSON document.
pub fn study_json_from(analyses: &StudyAnalyses) -> Value {
    let fig2: Vec<Value> = analyses
        .crawls
        .iter()
        .map(|a| {
            let r = &a.volume;
            Value::object(vec![
                ("browser", Value::str(&r.browser)),
                ("engine_requests", Value::from(r.engine_requests)),
                ("native_requests", Value::from(r.native_requests)),
                ("request_ratio", Value::Number(r.request_ratio)),
                ("engine_bytes", Value::from(r.engine_bytes)),
                ("native_bytes", Value::from(r.native_bytes)),
                ("volume_ratio", Value::Number(r.volume_ratio)),
            ])
        })
        .collect();

    let fig3: Vec<Value> = analyses
        .crawls
        .iter()
        .map(|a| {
            let r = &a.addomains;
            Value::object(vec![
                ("browser", Value::str(&r.browser)),
                ("native_hosts", Value::from(r.native_hosts.len() as u64)),
                (
                    "ad_hosts",
                    Value::Array(r.ad_hosts.iter().map(Value::str).collect()),
                ),
                ("ad_percent", Value::Number(r.ad_percent)),
            ])
        })
        .collect();

    let leaks: Vec<Value> = analyses
        .crawls
        .iter()
        .flat_map(|a| a.history_leaks.iter())
        .map(|l| {
            Value::object(vec![
                ("browser", Value::str(&l.browser)),
                ("destination", Value::str(&l.destination)),
                ("granularity", Value::str(l.granularity.as_str())),
                ("encoding", Value::str(format!("{:?}", l.encoding))),
                ("channel", Value::str(format!("{:?}", l.channel))),
                ("visits_leaked", Value::from(l.visits_leaked as u64)),
                (
                    "persistent_id",
                    l.persistent_id.clone().map(Value::String).unwrap_or(Value::Null),
                ),
            ])
        })
        .collect();

    let pii: Vec<Value> = analyses
        .crawls
        .iter()
        .map(|a| {
            let row = &a.pii;
            Value::object(vec![
                ("browser", Value::str(&row.browser)),
                (
                    "fields",
                    Value::Array(
                        row.leaked
                            .iter()
                            .map(|(f, dest)| {
                                Value::object(vec![
                                    ("field", Value::str(f.label())),
                                    ("destination", Value::str(dest)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    let doh = analyses
        .crawls
        .iter()
        .filter(|a| matches!(a.dns.resolver, ObservedResolver::Doh(_)))
        .count();
    let stub = analyses
        .crawls
        .iter()
        .filter(|a| a.dns.resolver == ObservedResolver::LocalStub)
        .count();
    let dns: Vec<Value> = analyses
        .crawls
        .iter()
        .map(|a| {
            let r = &a.dns;
            let resolver = match r.resolver {
                ObservedResolver::LocalStub => "stub".to_string(),
                ObservedResolver::Doh(p) => format!("doh:{}", p.host()),
                ObservedResolver::None => "none".to_string(),
            };
            Value::object(vec![
                ("browser", Value::str(&r.browser)),
                ("resolver", Value::str(resolver)),
                ("lookups", Value::from(r.lookups as u64)),
            ])
        })
        .collect();

    let transfer_rows: Vec<Value> = analyses
        .crawls
        .iter()
        .filter_map(|a| a.transfers.as_ref())
        .map(|t| {
            Value::object(vec![
                ("browser", Value::str(&t.browser)),
                ("granularity", Value::str(t.granularity.as_str())),
                (
                    "destinations",
                    Value::Array(
                        t.destinations
                            .iter()
                            .map(|(host, country)| {
                                Value::object(vec![
                                    ("host", Value::str(host)),
                                    ("country", Value::str(country.as_str())),
                                    ("eu", Value::Bool(country.is_eu())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("leaves_eu", Value::Bool(t.leaves_eu)),
            ])
        })
        .collect();

    let idle_json: Vec<Value> = analyses
        .idles
        .iter()
        .map(|a| {
            let tl = a.timeline(IDLE_BUCKET);
            Value::object(vec![
                ("browser", Value::str(&a.browser)),
                ("idle_sent", Value::from(a.idle_sent)),
                ("first_minute_share", Value::Number(tl.first_minute_share())),
                (
                    "cumulative",
                    Value::Array(
                        tl.cumulative
                            .iter()
                            .map(|(t, n)| Value::Array(vec![Value::from(*t), Value::from(*n)]))
                            .collect(),
                    ),
                ),
                (
                    "top_destinations",
                    Value::Array(
                        a.destination_shares()
                            .into_iter()
                            .take(5)
                            .map(|s| {
                                Value::object(vec![
                                    ("domain", Value::str(&s.domain)),
                                    ("percent", Value::Number(s.percent)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    Value::object(vec![
        ("figure2", Value::Array(fig2)),
        ("figure3", Value::Array(fig3)),
        ("history_leaks", Value::Array(leaks)),
        ("table2_pii", Value::Array(pii)),
        (
            "dns",
            Value::object(vec![
                ("doh_browsers", Value::from(doh as u64)),
                ("stub_browsers", Value::from(stub as u64)),
                ("rows", Value::Array(dns)),
            ]),
        ),
        ("transfers", Value::Array(transfer_rows)),
        ("figure5_idle", Value::Array(idle_json)),
    ])
}

/// Renders the full study (crawl campaigns + optional idle runs) as one
/// JSON document, analysing each capture with the fused single-pass
/// engine.
pub fn study_json(results: &[CampaignResult], idles: &[IdleResult]) -> Value {
    study_json_from(&analyze_study(results, idles, &AnalysisResources::standard()))
}

/// Pretty-printed form of [`study_json`].
pub fn study_report(results: &[CampaignResult], idles: &[IdleResult]) -> String {
    json::to_string_pretty(&study_json(results, idles))
}

/// Pretty-printed form of [`study_json_from`].
pub fn study_report_from(analyses: &StudyAnalyses) -> String {
    json::to_string_pretty(&study_json_from(analyses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes::campaign::run_crawl;
    use panoptes::config::CampaignConfig;
    use panoptes::idle::run_idle;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    #[test]
    fn report_is_valid_json_with_all_sections() {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 3, ..Default::default() });
        let config = CampaignConfig::default();
        let results: Vec<_> = ["Yandex", "Chrome"]
            .iter()
            .map(|n| run_crawl(&world, &profile_by_name(n).unwrap(), &world.sites, &config))
            .collect();
        let idles = vec![run_idle(
            &world,
            &profile_by_name("Opera").unwrap(),
            SimDuration::from_secs(120),
            &config,
        )];
        let text = study_report(&results, &idles);
        let parsed = json::parse(&text).unwrap();
        for section in
            ["figure2", "figure3", "history_leaks", "table2_pii", "dns", "transfers", "figure5_idle"]
        {
            assert!(parsed.get(section).is_some(), "{section} missing");
        }
        // Yandex's leak is in the document.
        let leaks = parsed.get("history_leaks").unwrap().as_array().unwrap();
        assert!(leaks
            .iter()
            .any(|l| l.get("destination").unwrap().as_str() == Some("sba.yandex.net")));
        // Idle timeline is present and monotone.
        let idle = &parsed.get("figure5_idle").unwrap().as_array().unwrap()[0];
        let series = idle.get("cumulative").unwrap().as_array().unwrap();
        assert!(!series.is_empty());
    }
}
