//! TLS simulation: certificates, trust stores, SNI handshakes, pinning.
//!
//! Panoptes installs the mitmproxy CA certificate on the tablet so
//! intercepted handshakes succeed (§2.2). Apps that *pin* specific
//! domains refuse the proxy's substituted certificate; the paper
//! explicitly treats those flows as unobservable and its results as lower
//! bounds (footnote 3). This module models exactly those mechanics — no
//! actual cryptography is involved, only the trust decisions.

use std::sync::Arc;

use panoptes_http::hash::FastMap;
use panoptes_http::Atom;
use parking_lot::Mutex;

/// Identifies a certificate authority. The two CAs of a study are
/// process constants, static atoms, so cloning one into every forged
/// certificate copies a pointer and touches no shared reference count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CaId(pub Atom);

static PUBLIC_WEB_PKI: Atom = Atom::from_static(&"public-web-pki");
static MITM_CA: Atom = Atom::from_static(&"panoptes-mitm-ca");

impl CaId {
    /// The public Web PKI root that signs every origin server in the
    /// simulated world.
    pub fn public_web_pki() -> CaId {
        CaId(PUBLIC_WEB_PKI.clone())
    }

    /// The Panoptes mitmproxy CA installed on the test device.
    pub fn mitm() -> CaId {
        CaId(MITM_CA.clone())
    }
}

/// A leaf certificate presented during a handshake. Both fields are
/// atoms (an interned subject, a static issuer), so a cached
/// certificate clones without copying a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The DNS name the certificate covers (exact or `*.`-wildcard).
    pub subject: Atom,
    /// The CA that issued it.
    pub issuer: CaId,
}

impl Certificate {
    /// True when this certificate is valid for `host`.
    pub fn covers(&self, host: &str) -> bool {
        if let Some(suffix) = self.subject.strip_prefix("*.") {
            // Wildcard matches exactly one extra label.
            host.strip_suffix(suffix)
                .and_then(|p| p.strip_suffix('.'))
                .is_some_and(|label| !label.is_empty() && !label.contains('.'))
        } else {
            self.subject == host
        }
    }
}

/// The set of CA roots a client trusts.
///
/// `Arc`-backed: cloning one per request (the per-request client context)
/// is a reference-count bump, and mutation copies-on-write only for the
/// rare install during setup.
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    roots: std::sync::Arc<Vec<CaId>>,
}

impl TrustStore {
    /// The Android system store: public Web PKI only.
    pub fn system() -> TrustStore {
        TrustStore { roots: std::sync::Arc::new(vec![CaId::public_web_pki()]) }
    }

    /// Installs an additional root (what Panoptes does with the MITM CA).
    pub fn install(&mut self, ca: CaId) {
        if !self.roots.contains(&ca) {
            std::sync::Arc::make_mut(&mut self.roots).push(ca);
        }
    }

    /// True when `ca` is trusted.
    pub fn trusts(&self, ca: &CaId) -> bool {
        self.roots.contains(ca)
    }
}

/// Per-app certificate-pinning policy: a set of registrable domains for
/// which only the public PKI chain is accepted. `Arc`-backed like
/// [`TrustStore`], for the same per-request cloning reason.
#[derive(Debug, Clone, Default)]
pub struct PinPolicy {
    pinned_domains: std::sync::Arc<Vec<String>>,
}

impl PinPolicy {
    /// No pinning.
    pub fn none() -> PinPolicy {
        PinPolicy::default()
    }

    /// Pins the given registrable domains.
    pub fn pin(domains: &[&str]) -> PinPolicy {
        PinPolicy {
            pinned_domains: std::sync::Arc::new(
                domains.iter().map(|d| d.to_string()).collect(),
            ),
        }
    }

    /// True when connections to `host` are pinned. Allocation-free: the
    /// registrable domain is a suffix of `host`, compared in place. Most
    /// apps pin nothing, so the empty case returns immediately.
    pub fn is_pinned(&self, host: &str) -> bool {
        if self.pinned_domains.is_empty() {
            return false;
        }
        let reg = panoptes_http::url::registrable_suffix(host);
        self.pinned_domains.iter().any(|d| d == reg)
    }
}

/// Outcome of a simulated TLS handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlsOutcome {
    /// Handshake succeeded against the genuine origin certificate.
    DirectOk,
    /// Handshake succeeded against the MITM-substituted certificate;
    /// the proxy can read the plaintext.
    InterceptedOk,
    /// The app pinned this domain and rejected the substituted
    /// certificate; the flow is opaque to the measurement.
    PinnedRejected,
    /// The client does not trust the presented chain at all.
    Untrusted,
    /// The presented certificate does not cover the requested SNI.
    NameMismatch,
}

impl TlsOutcome {
    /// True when application data flows (the request can be delivered).
    pub fn is_ok(self) -> bool {
        matches!(self, TlsOutcome::DirectOk | TlsOutcome::InterceptedOk)
    }
}

/// Evaluates a handshake: client with `trust`/`pins` connects to `sni`,
/// and is presented `cert`. `intercepted` says whether a transparent
/// proxy substituted the chain.
pub fn handshake(
    trust: &TrustStore,
    pins: &PinPolicy,
    sni: &str,
    cert: &Certificate,
    intercepted: bool,
) -> TlsOutcome {
    if !cert.covers(sni) {
        return TlsOutcome::NameMismatch;
    }
    if intercepted {
        if pins.is_pinned(sni) {
            return TlsOutcome::PinnedRejected;
        }
        if !trust.trusts(&cert.issuer) {
            return TlsOutcome::Untrusted;
        }
        TlsOutcome::InterceptedOk
    } else {
        if !trust.trusts(&cert.issuer) {
            return TlsOutcome::Untrusted;
        }
        TlsOutcome::DirectOk
    }
}

/// A certificate authority that can issue leaf certificates — the MITM
/// proxy forges one per SNI on the fly, exactly like mitmproxy (which
/// likewise caches the forged certificate per host after the first
/// handshake).
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    id: CaId,
    /// Per-subject certificate cache, shared across clones of the
    /// authority. A repeat handshake for a host clones the cached
    /// certificate — a subject reference-count bump, no allocation.
    issued: Arc<Mutex<FastMap<Atom, Certificate>>>,
}

impl CertificateAuthority {
    /// Creates an authority with the given identity.
    pub fn new(id: CaId) -> CertificateAuthority {
        CertificateAuthority { id, issued: Arc::default() }
    }

    /// This authority's identity.
    pub fn id(&self) -> &CaId {
        &self.id
    }

    /// Issues a leaf certificate for an already-interned `subject` —
    /// the lock-free request path. A certificate is just the subject
    /// atom plus the CA identity, so when the caller already holds the
    /// interned host (every resolved route does) minting is one
    /// reference-count bump on the subject and a pointer copy of the
    /// static CA id: no cache, no lock, no allocation.
    pub fn issue_for(&self, subject: &Atom) -> Certificate {
        panoptes_obs::count!("simnet.tls.certs_issued", Deterministic);
        Certificate { subject: subject.clone(), issuer: self.id.clone() }
    }

    /// Issues a leaf certificate for `subject`, reusing the one minted
    /// on the first handshake for that name.
    pub fn issue(&self, subject: &str) -> Certificate {
        let mut issued = self.issued.lock();
        if let Some(cert) = issued.get(subject) {
            // Deterministic: each testbed owns its CA, so the hit/miss
            // balance is a function of the unit's flow sequence alone.
            panoptes_obs::count!("simnet.tls.cert_cache.hits", Deterministic);
            return cert.clone();
        }
        panoptes_obs::count!("simnet.tls.cert_cache.misses", Deterministic);
        let cert = Certificate { subject: Atom::intern(subject), issuer: self.id.clone() };
        issued.insert(cert.subject.clone(), cert.clone());
        cert
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn public_cert(host: &str) -> Certificate {
        CertificateAuthority::new(CaId::public_web_pki()).issue(host)
    }

    #[test]
    fn wildcard_coverage() {
        let cert = public_cert("*.example.com");
        assert!(cert.covers("www.example.com"));
        assert!(cert.covers("api.example.com"));
        assert!(!cert.covers("example.com"));
        assert!(!cert.covers("a.b.example.com"));
        assert!(!cert.covers("evil-example.com"));
    }

    #[test]
    fn direct_handshake_with_system_store() {
        let trust = TrustStore::system();
        let outcome =
            handshake(&trust, &PinPolicy::none(), "example.com", &public_cert("example.com"), false);
        assert_eq!(outcome, TlsOutcome::DirectOk);
        assert!(outcome.is_ok());
    }

    #[test]
    fn intercepted_requires_mitm_ca_installed() {
        let mitm = CertificateAuthority::new(CaId::mitm());
        let forged = mitm.issue("example.com");
        let bare = TrustStore::system();
        assert_eq!(
            handshake(&bare, &PinPolicy::none(), "example.com", &forged, true),
            TlsOutcome::Untrusted
        );
        let mut with_ca = TrustStore::system();
        with_ca.install(CaId::mitm());
        assert_eq!(
            handshake(&with_ca, &PinPolicy::none(), "example.com", &forged, true),
            TlsOutcome::InterceptedOk
        );
    }

    #[test]
    fn pinning_defeats_interception_but_not_direct() {
        let mitm = CertificateAuthority::new(CaId::mitm());
        let mut trust = TrustStore::system();
        trust.install(CaId::mitm());
        let pins = PinPolicy::pin(&["vendor.com"]);
        assert_eq!(
            handshake(&trust, &pins, "telemetry.vendor.com", &mitm.issue("telemetry.vendor.com"), true),
            TlsOutcome::PinnedRejected
        );
        assert_eq!(
            handshake(&trust, &pins, "telemetry.vendor.com", &public_cert("telemetry.vendor.com"), false),
            TlsOutcome::DirectOk
        );
    }

    #[test]
    fn name_mismatch_detected() {
        let trust = TrustStore::system();
        assert_eq!(
            handshake(&trust, &PinPolicy::none(), "other.com", &public_cert("example.com"), false),
            TlsOutcome::NameMismatch
        );
    }

    #[test]
    fn ca_ids_are_static_atoms() {
        for ca in [CaId::public_web_pki(), CaId::mitm()] {
            assert!(ca.0.is_static(), "{ca:?}");
        }
        assert!(Atom::ptr_eq(&CaId::mitm().0, &CaId::mitm().0));
        let forged = CertificateAuthority::new(CaId::mitm()).issue_for(&Atom::intern("e.com"));
        assert!(forged.issuer.0.is_static());
    }

    #[test]
    fn install_is_idempotent() {
        let mut trust = TrustStore::system();
        trust.install(CaId::mitm());
        trust.install(CaId::mitm());
        assert!(trust.trusts(&CaId::mitm()));
    }
}
