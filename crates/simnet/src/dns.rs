//! DNS: zone registry, the device's local stub resolver, and
//! DNS-over-HTTPS providers.
//!
//! The paper found that "8 out of all 15 mobile browsers in our dataset
//! query Cloudflare's or Google's third-party DNS-over-HTTPS services for
//! the visited domains with the rest (7) of them using the device's local
//! DNS stub resolver" (§3.2). Both paths are modelled:
//!
//! * **stub** lookups are plain UDP/53 exchanges answered from the zone —
//!   they never appear in the HTTP flow capture but are recorded in the
//!   network's DNS log;
//! * **DoH** lookups are real HTTPS requests to the provider's resolver
//!   endpoint, so they surface in the MITM capture as *native* browser
//!   traffic to a third party.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use panoptes_http::hash::FastMap;
use panoptes_http::headers::vocab;
use panoptes_http::netaddr::IpAddr;
use panoptes_http::url::Url;
use panoptes_http::{Atom, Request};

/// A DNS zone: the authoritative host → address map for the simulated
/// Internet. Populated by `panoptes-web` when the world is built.
#[derive(Debug, Clone, Default)]
pub struct DnsZone {
    records: FastMap<String, IpAddr>,
}

impl DnsZone {
    /// An empty zone.
    pub fn new() -> DnsZone {
        DnsZone::default()
    }

    /// Registers (or replaces) an A record.
    pub fn insert(&mut self, host: &str, addr: IpAddr) {
        self.records.insert(host.to_ascii_lowercase(), addr);
    }

    /// Looks up an A record. Hosts on the request path are already
    /// lowercase (URL parsing lowercases them), so the common case is a
    /// borrowed probe; only mixed-case queries pay the lowercasing copy.
    pub fn lookup(&self, host: &str) -> Option<IpAddr> {
        if host.bytes().any(|b| b.is_ascii_uppercase()) {
            return self.records.get(&host.to_ascii_lowercase()).copied();
        }
        self.records.get(host).copied()
    }

    /// Number of registered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the zone is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates `(host, addr)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, IpAddr)> {
        self.records.iter().map(|(h, a)| (h.as_str(), *a))
    }
}

/// A public DNS-over-HTTPS provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DohProvider {
    /// Cloudflare (`cloudflare-dns.com`).
    Cloudflare,
    /// Google Public DNS (`dns.google`).
    Google,
}

impl DohProvider {
    /// The resolver endpoint hostname.
    pub fn host(self) -> &'static str {
        match self {
            DohProvider::Cloudflare => "cloudflare-dns.com",
            DohProvider::Google => "dns.google",
        }
    }

    /// Builds the HTTPS query request for `name` (RFC 8484's JSON-ish GET
    /// form, which is what appears in the flow capture). Building it
    /// interns nothing: a URL holds its host as text.
    pub fn query_request(self, name: &str) -> Request {
        let url = Url::https(self.host())
            .with_path("/dns-query")
            .with_query_param("name", name)
            .with_query_param("type", "A");
        let v = vocab();
        Request::get(url).with_header(v.accept.clone(), v.dns_json.clone())
    }
}

/// How a browser resolves names — the device stub or a DoH provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolverKind {
    /// The device's local stub resolver (UDP/53 to the gateway).
    LocalStub,
    /// DNS-over-HTTPS to a public provider.
    Doh(DohProvider),
}

impl ResolverKind {
    /// True when this resolver produces HTTPS traffic visible to the MITM.
    pub fn is_doh(self) -> bool {
        matches!(self, ResolverKind::Doh(_))
    }
}

/// One recorded DNS lookup (stub or DoH), for the §3.2 DNS analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsLogEntry {
    /// UID of the app that asked.
    pub uid: u32,
    /// The name queried.
    pub name: Atom,
    /// Which mechanism was used.
    pub resolver: ResolverKind,
}

/// Number of [`DnsLog`] shards. Writers from different fleet workers
/// hash to different shards, so an append rarely contends.
const DNS_LOG_SHARDS: usize = 8;

/// An append-only, sharded DNS query log.
///
/// Appends take one shard lock; reads return a memoised
/// [`DnsLogSnapshot`] (shared `Arc`, merged and ordered by a global
/// append sequence) instead of cloning the whole log under a lock —
/// the former `SimNet::dns_log()` behaviour this replaces.
#[derive(Debug, Default)]
pub struct DnsLog {
    shards: [Mutex<Vec<(u64, DnsLogEntry)>>; DNS_LOG_SHARDS],
    next_seq: AtomicU64,
    memo: Mutex<Option<(u64, DnsLogSnapshot)>>,
}

/// An immutable, cheaply clonable view of the DNS log in append order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DnsLogSnapshot(Arc<Vec<DnsLogEntry>>);

impl DnsLog {
    /// An empty log.
    pub fn new() -> DnsLog {
        DnsLog::default()
    }

    /// Appends one entry.
    pub fn push(&self, entry: DnsLogEntry) {
        panoptes_obs::count!("simnet.dns.queries", Deterministic);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.shards[(seq as usize) % DNS_LOG_SHARDS].lock().push((seq, entry));
    }

    /// Number of entries logged so far.
    pub fn len(&self) -> usize {
        self.next_seq.load(Ordering::Relaxed) as usize
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all entries in append order. Memoised: repeated
    /// calls without intervening appends share one allocation.
    pub fn snapshot(&self) -> DnsLogSnapshot {
        let seq = self.next_seq.load(Ordering::Acquire);
        let mut memo = self.memo.lock();
        if let Some((at, snap)) = memo.as_ref() {
            if *at == seq {
                return snap.clone();
            }
        }
        let mut merged: Vec<(u64, DnsLogEntry)> = Vec::with_capacity(seq as usize);
        for shard in &self.shards {
            merged.extend(shard.lock().iter().cloned());
        }
        merged.sort_unstable_by_key(|(s, _)| *s);
        let snap = DnsLogSnapshot(Arc::new(merged.into_iter().map(|(_, e)| e).collect()));
        *memo = Some((seq, snap.clone()));
        snap
    }
}

impl DnsLogSnapshot {
    /// Builds a snapshot from already-ordered entries (e.g. parsed from
    /// an archive).
    pub fn from_entries(entries: Vec<DnsLogEntry>) -> DnsLogSnapshot {
        DnsLogSnapshot(Arc::new(entries))
    }

    /// Entries in append order.
    pub fn iter(&self) -> std::slice::Iter<'_, DnsLogEntry> {
        self.0.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::ops::Index<usize> for DnsLogSnapshot {
    type Output = DnsLogEntry;
    fn index(&self, i: usize) -> &DnsLogEntry {
        &self.0[i]
    }
}

impl<'a> IntoIterator for &'a DnsLogSnapshot {
    type Item = &'a DnsLogEntry;
    type IntoIter = std::slice::Iter<'a, DnsLogEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_roundtrip_case_insensitive() {
        let mut zone = DnsZone::new();
        zone.insert("Example.COM", IpAddr::new(198, 51, 100, 1));
        assert_eq!(zone.lookup("example.com"), Some(IpAddr::new(198, 51, 100, 1)));
        assert_eq!(zone.lookup("EXAMPLE.com"), Some(IpAddr::new(198, 51, 100, 1)));
        assert_eq!(zone.lookup("other.com"), None);
        assert_eq!(zone.len(), 1);
        assert!(!zone.is_empty());
    }

    #[test]
    fn insert_replaces() {
        let mut zone = DnsZone::new();
        zone.insert("a.com", IpAddr::new(1, 1, 1, 1));
        zone.insert("a.com", IpAddr::new(2, 2, 2, 2));
        assert_eq!(zone.lookup("a.com"), Some(IpAddr::new(2, 2, 2, 2)));
        assert_eq!(zone.len(), 1);
    }

    #[test]
    fn doh_query_shape() {
        let req = DohProvider::Google.query_request("www.youtube.com");
        assert_eq!(req.url.host(), "dns.google");
        assert_eq!(req.url.path(), "/dns-query");
        assert_eq!(req.url.query_param("name").as_deref(), Some("www.youtube.com"));
        assert_eq!(req.headers.get("accept"), Some("application/dns-json"));
    }

    #[test]
    fn dns_log_preserves_append_order_across_shards() {
        let log = DnsLog::new();
        for i in 0..20u32 {
            log.push(DnsLogEntry {
                uid: i,
                name: Atom::intern(&format!("host{i}.example")),
                resolver: ResolverKind::LocalStub,
            });
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 20);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.uid, i as u32);
        }
        // Memoised: same snapshot while nothing is appended.
        let again = log.snapshot();
        assert_eq!(snap.len(), again.len());
        log.push(DnsLogEntry {
            uid: 99,
            name: Atom::intern("late.example"),
            resolver: ResolverKind::LocalStub,
        });
        assert_eq!(log.snapshot().len(), 21);
        assert_eq!(log.snapshot()[20].uid, 99);
    }

    #[test]
    fn resolver_kind_classification() {
        assert!(!ResolverKind::LocalStub.is_doh());
        assert!(ResolverKind::Doh(DohProvider::Cloudflare).is_doh());
        assert_eq!(DohProvider::Cloudflare.host(), "cloudflare-dns.com");
    }
}
