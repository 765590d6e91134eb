//! Campaign archiving: lossless persistence of a campaign's capture
//! *plus its ground truth*, so analyses can re-run offline months later
//! (the longitudinal-study workflow; the paper's own dataset is archived
//! the same way).
//!
//! A [`CampaignArchive`] is a single JSON document: campaign metadata,
//! the visit log, the DNS log, and the flow database. Everything the
//! analysis layer consumes round-trips through it.

use std::sync::Arc;

use panoptes_browsers::registry::profile_by_name;
use panoptes_http::json::{self, Value};
use panoptes_mitm::{Flow, FlowStore};
use panoptes_simnet::clock::SimDuration;
use panoptes_http::Atom;
use panoptes_simnet::dns::{DnsLogEntry, DnsLogSnapshot, DohProvider, ResolverKind};

use crate::campaign::{CampaignResult, VisitRecord};

/// An error loading an archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveError(pub String);

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "archive error: {}", self.0)
    }
}

impl std::error::Error for ArchiveError {}

fn err(m: &str) -> ArchiveError {
    ArchiveError(m.to_string())
}

/// Serializes a campaign result into the archive document.
pub fn save(result: &CampaignResult) -> String {
    let visits: Vec<Value> = result
        .visits
        .iter()
        .map(|v| {
            Value::object(vec![
                ("url", Value::str(&v.url)),
                ("domain", Value::str(&v.domain)),
                ("sensitive", Value::Bool(v.sensitive)),
                ("dcl_fired", Value::Bool(v.dcl_fired)),
                ("dwell_us", Value::from(v.dwell.0)),
            ])
        })
        .collect();
    let dns: Vec<Value> = result
        .dns_log
        .iter()
        .map(|e| {
            let resolver = match e.resolver {
                ResolverKind::LocalStub => "stub".to_string(),
                ResolverKind::Doh(p) => format!("doh:{}", p.host()),
            };
            Value::object(vec![
                ("uid", Value::from(e.uid)),
                ("name", Value::str(&e.name)),
                ("resolver", Value::str(resolver)),
            ])
        })
        .collect();
    let flows: Vec<Value> =
        result.store.snapshot().iter().map(Flow::to_json).collect();
    json::to_string(&Value::object(vec![
        ("format", Value::str("panoptes-campaign/1")),
        ("browser", Value::str(&result.profile.name)),
        ("uid", Value::from(result.uid)),
        ("engine_sent", Value::from(result.engine_sent)),
        ("native_sent", Value::from(result.native_sent)),
        ("adblocked", Value::from(result.adblocked)),
        ("visits", Value::Array(visits)),
        ("dns_log", Value::Array(dns)),
        ("flows", Value::Array(flows)),
    ]))
}

/// Loads an archive document back into a [`CampaignResult`].
pub fn load(text: &str) -> Result<CampaignResult, ArchiveError> {
    let doc = json::parse(text).map_err(|e| err(&e.to_string()))?;
    if doc.get("format").and_then(|f| f.as_str()) != Some("panoptes-campaign/1") {
        return Err(err("unknown archive format"));
    }
    let browser = doc
        .get("browser")
        .and_then(|b| b.as_str())
        .ok_or_else(|| err("missing browser"))?;
    let profile =
        profile_by_name(browser).ok_or_else(|| err(&format!("unknown browser {browser}")))?;

    let visits = doc
        .get("visits")
        .and_then(|v| v.as_array())
        .ok_or_else(|| err("missing visits"))?
        .iter()
        .map(|v| {
            Some(VisitRecord {
                url: v.get("url")?.as_str()?.to_string(),
                domain: v.get("domain")?.as_str()?.to_string(),
                sensitive: v.get("sensitive")?.as_bool()?,
                dcl_fired: v.get("dcl_fired")?.as_bool()?,
                dwell: SimDuration(v.get("dwell_us")?.as_i64()? as u64),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| err("malformed visit record"))?;

    let dns_log = doc
        .get("dns_log")
        .and_then(|v| v.as_array())
        .ok_or_else(|| err("missing dns_log"))?
        .iter()
        .map(|e| {
            let resolver = match e.get("resolver")?.as_str()? {
                "stub" => ResolverKind::LocalStub,
                "doh:dns.google" => ResolverKind::Doh(DohProvider::Google),
                "doh:cloudflare-dns.com" => ResolverKind::Doh(DohProvider::Cloudflare),
                _ => return None,
            };
            Some(DnsLogEntry {
                uid: e.get("uid")?.as_i64()? as u32,
                name: Atom::intern(e.get("name")?.as_str()?),
                resolver,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| err("malformed dns entry"))?;

    let store = Arc::new(FlowStore::new());
    for f in doc
        .get("flows")
        .and_then(|v| v.as_array())
        .ok_or_else(|| err("missing flows"))?
    {
        store.push(Flow::from_json(f).ok_or_else(|| err("malformed flow"))?);
    }

    Ok(CampaignResult {
        profile,
        uid: doc.get("uid").and_then(|v| v.as_i64()).ok_or_else(|| err("missing uid"))? as u32,
        store,
        visits,
        dns_log: DnsLogSnapshot::from_entries(dns_log),
        engine_sent: doc
            .get("engine_sent")
            .and_then(|v| v.as_i64())
            .ok_or_else(|| err("missing engine_sent"))? as u64,
        native_sent: doc
            .get("native_sent")
            .and_then(|v| v.as_i64())
            .ok_or_else(|| err("missing native_sent"))? as u64,
        adblocked: doc
            .get("adblocked")
            .and_then(|v| v.as_i64())
            .ok_or_else(|| err("missing adblocked"))? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_crawl;
    use crate::config::CampaignConfig;
    use panoptes_web::generator::GeneratorConfig;
    use panoptes_web::World;

    fn sample() -> CampaignResult {
        let world =
            World::build(&GeneratorConfig { popular: 4, sensitive: 3, ..Default::default() });
        run_crawl(
            &world,
            &profile_by_name("Yandex").unwrap(),
            &world.sites,
            &CampaignConfig::default(),
        )
    }

    #[test]
    fn archive_roundtrip_is_lossless() {
        let original = sample();
        let text = save(&original);
        let restored = load(&text).unwrap();
        assert_eq!(restored.profile.name, original.profile.name);
        assert_eq!(restored.uid, original.uid);
        assert_eq!(restored.visits, original.visits);
        assert_eq!(restored.dns_log, original.dns_log);
        assert_eq!(
            restored.store.export_jsonl(),
            original.store.export_jsonl()
        );
        assert_eq!(restored.engine_sent, original.engine_sent);
        assert_eq!(restored.native_sent, original.native_sent);
    }

    #[test]
    fn rejects_malformed_archives() {
        assert!(load("not json").is_err());
        assert!(load("{}").is_err());
        assert!(load(r#"{"format":"panoptes-campaign/1"}"#).is_err());
        assert!(load(r#"{"format":"other/9","browser":"Chrome"}"#).is_err());
        // Unknown browser names are rejected (the registry is the schema).
        let text = save(&sample()).replace("\"browser\":\"Yandex\"", "\"browser\":\"Nonesuch\"");
        assert!(load(&text).is_err());
    }
}
