//! The guard addon: enforcement at the interception point.
//!
//! Installed *after* the taint splitter, so flow classes are already
//! decided; the guard acts only on [`FlowClass::Native`] traffic —
//! website traffic is the engine's business (and the province of
//! ordinary content blockers, which the paper notes are powerless
//! against native tracking).

use bytes::Bytes;

use parking_lot::Mutex;

use panoptes_http::json::{self, Value};
use panoptes_mitm::addon::Verdict;
use panoptes_mitm::{Addon, FlowClass, InterceptedRequest};

use crate::policy::{GuardPolicy, GuardStats};

/// The enforcement addon.
pub struct GuardAddon {
    policy: GuardPolicy,
    stats: Mutex<GuardStats>,
}

impl GuardAddon {
    /// Builds the addon for a policy.
    pub fn new(policy: GuardPolicy) -> GuardAddon {
        GuardAddon { policy, stats: Mutex::new(GuardStats::default()) }
    }

    /// Activity counters.
    pub fn stats(&self) -> GuardStats {
        *self.stats.lock()
    }

    fn redact_json(&self, value: &Value, redacted: &mut u64) -> Value {
        match value {
            Value::String(s) => match self.policy.redact_value(s) {
                Some(new) => {
                    *redacted += 1;
                    Value::String(new)
                }
                None => value.clone(),
            },
            Value::Array(items) => {
                Value::Array(items.iter().map(|v| self.redact_json(v, redacted)).collect())
            }
            Value::Object(pairs) => Value::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), self.redact_json(v, redacted)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
}

impl Addon for GuardAddon {
    fn name(&self) -> &str {
        "guard"
    }

    fn on_request(&self, ir: &mut InterceptedRequest<'_>) {
        // Only native traffic is in scope.
        if *ir.class != FlowClass::Native {
            return;
        }

        if self.policy.should_block(ir.request.url.host()) {
            *ir.verdict = Verdict::Block;
            self.stats.lock().blocked += 1;
            return;
        }

        let mut redacted = 0u64;
        redacted += ir
            .request
            .url
            .map_query_values(|_k, v| self.policy.redact_value(v)) as u64;

        // JSON bodies (the ad-SDK channel of Listing 1).
        let body = ir.request.body.clone();
        if let Ok(text) = std::str::from_utf8(&body) {
            let trimmed = text.trim_start();
            if trimmed.starts_with('{') || trimmed.starts_with('[') {
                if let Ok(parsed) = json::parse(trimmed) {
                    let clean = self.redact_json(&parsed, &mut redacted);
                    if redacted > 0 {
                        ir.request.body = Bytes::from(json::to_string(&clean));
                    }
                }
            }
        }

        let mut stats = self.stats.lock();
        if redacted > 0 {
            stats.redacted_values += redacted;
        } else {
            stats.passed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::netaddr::IpAddr;
    use panoptes_http::request::HttpVersion;
    use panoptes_http::url::Url;
    use panoptes_http::Request;
    use panoptes_simnet::clock::SimInstant;
    use panoptes_simnet::net::FlowContext;

    fn ctx() -> FlowContext {
        FlowContext {
            time: SimInstant::EPOCH,
            uid: 1,
            app_package: "a".into(),
            src_ip: IpAddr::new(10, 0, 0, 1),
            dst_ip: IpAddr::new(10, 0, 0, 2),
            dst_port: 443,
            sni: "x.com".into(),
            version: HttpVersion::H2,
            intercepted: true,
        }
    }

    fn run(addon: &GuardAddon, req: &mut Request, class: FlowClass) -> Verdict {
        let ctx = ctx();
        let mut class = class;
        let mut verdict = Verdict::Forward;
        addon.on_request(&mut InterceptedRequest {
            ctx: &ctx,
            request: req,
            class: &mut class,
            verdict: &mut verdict,
        });
        verdict
    }

    #[test]
    fn blocks_listed_native_destinations() {
        let addon = GuardAddon::new(GuardPolicy::strict(&["sba.yandex.net"], &[]));
        let mut req = Request::get(Url::parse("https://sba.yandex.net/safety/check").unwrap());
        assert_eq!(run(&addon, &mut req, FlowClass::Native), Verdict::Block);
        assert_eq!(addon.stats().blocked, 1);
    }

    #[test]
    fn never_touches_engine_traffic() {
        let addon = GuardAddon::new(GuardPolicy::strict(&["doubleclick.net"], &[]));
        let mut req = Request::get(
            Url::parse("https://doubleclick.net/bid?page=https://a.com/x").unwrap(),
        );
        assert_eq!(run(&addon, &mut req, FlowClass::Engine), Verdict::Forward);
        assert_eq!(req.url.query_param("page").as_deref(), Some("https://a.com/x"));
        assert_eq!(addon.stats().blocked, 0);
    }

    #[test]
    fn redacts_history_in_query() {
        let addon = GuardAddon::new(GuardPolicy::strict(&[], &[]));
        let mut req = Request::get(
            Url::parse("https://wup.browser.qq.com/report?url=https://a.com/secret&seq=1")
                .unwrap(),
        );
        assert_eq!(run(&addon, &mut req, FlowClass::Native), Verdict::Forward);
        assert_eq!(req.url.query_param("url").as_deref(), Some("redacted"));
        assert_eq!(req.url.query_param("seq").as_deref(), Some("1"), "non-URL values untouched");
        assert_eq!(addon.stats().redacted_values, 1);
    }

    #[test]
    fn redacts_base64_history() {
        let addon = GuardAddon::new(GuardPolicy::strict(&[], &[]));
        let encoded = panoptes_http::codec::b64_encode_url(b"https://a.com/sensitive-page");
        let url = Url::https("vendor-telemetry.example")
            .with_path("/r")
            .with_query_param("u", &encoded);
        let mut req = Request::get(url);
        run(&addon, &mut req, FlowClass::Native);
        assert_eq!(req.url.query_param("u").as_deref(), Some("redacted"));
    }

    #[test]
    fn redacts_pii_in_json_body() {
        let policy =
            GuardPolicy::strict(&[], &["1200x1920".to_string(), "35.3387".to_string()]);
        let addon = GuardAddon::new(policy);
        let body = r#"{"screen":"1200x1920","nested":{"lat":"35.3387"},"keep":"WIFI"}"#;
        let mut req = Request::post(
            Url::parse("https://vendor-telemetry.example/t").unwrap(),
            body.as_bytes().to_vec(),
        );
        run(&addon, &mut req, FlowClass::Native);
        let rewritten = json::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
        assert_eq!(rewritten.get("screen").unwrap().as_str(), Some("redacted"));
        assert_eq!(
            rewritten.get("nested").unwrap().get("lat").unwrap().as_str(),
            Some("redacted")
        );
        assert_eq!(rewritten.get("keep").unwrap().as_str(), Some("WIFI"));
        assert_eq!(addon.stats().redacted_values, 2);
    }

    #[test]
    fn inert_policy_passes_everything() {
        let addon = GuardAddon::new(GuardPolicy::none());
        let mut req = Request::get(
            Url::parse("https://sba.yandex.net/r?url=https://a.com/").unwrap(),
        );
        assert_eq!(run(&addon, &mut req, FlowClass::Native), Verdict::Forward);
        assert_eq!(req.url.query_param("url").as_deref(), Some("https://a.com/"));
        assert_eq!(addon.stats().passed, 1);
    }
}
