//! A running browser instance: engine + native behaviours.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use panoptes_blocklist::filterlist::easylist_excerpt;
use panoptes_blocklist::FilterList;
use panoptes_device::{AppDataStore, DeviceProperties};
use panoptes_http::url::Url;
use panoptes_instrument::tap::RequestTap;
use panoptes_simnet::clock::{SimClock, SimDuration, SimInstant};
use panoptes_simnet::net::Network;
use panoptes_simnet::tls::{CaId, PinPolicy, TrustStore};
use panoptes_simnet::EventQueue;
use panoptes_web::site::SiteSpec;

use crate::engine::{ClientTemplate, EngineSession, EngineStats};
use crate::payload::{build_native_request, PayloadCtx};
use crate::profile::{BrowserProfile, NativeCall};

/// Normal or incognito browsing (§3.2's incognito experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowsingMode {
    /// Regular browsing.
    Normal,
    /// Private/incognito mode.
    Incognito,
}

/// Everything a browser touches while running — owned by the campaign.
pub struct Env<'a> {
    /// The simulated network path.
    pub net: &'a Network,
    /// The campaign clock.
    pub clock: &'a mut SimClock,
    /// Device properties (PII source).
    pub props: &'a DeviceProperties,
    /// The app's private data store.
    pub data: &'a mut AppDataStore,
    /// The instrumentation tap tainting engine requests (`None` for
    /// un-instrumented control runs).
    pub tap: Option<Arc<dyn RequestTap>>,
}

/// What one page visit produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitOutcome {
    /// The visited URL.
    pub url: String,
    /// Engine request/fallback/block counters.
    pub engine: EngineStats,
    /// Native requests sent because of this visit.
    pub native_sent: u32,
    /// Virtual time `DOMContentLoaded` fired, if within the page's
    /// ability (the 60-second budget of §2.1 is applied by the crawler).
    pub dom_content_loaded_at: Option<SimInstant>,
}

/// A launched browser instance.
pub struct Browser {
    /// The static model.
    pub profile: BrowserProfile,
    /// Current browsing mode.
    pub mode: BrowsingMode,
    client: ClientTemplate,
    session: EngineSession,
    seed: u64,
    #[allow(dead_code)] // jitter hook for future behaviours
    rng: StdRng,
}

impl Browser {
    /// Launches `profile` as UID `uid` under campaign `seed`. The trust
    /// store contains the system roots plus the Panoptes MITM CA (§2.2
    /// installs it on the device).
    pub fn launch(profile: BrowserProfile, uid: u32, seed: u64, mode: BrowsingMode) -> Browser {
        Browser::launch_with(profile, uid, seed, mode, None)
    }

    /// [`Browser::launch`] with an optional pre-compiled filterlist.
    ///
    /// When `shared_filter` is `Some` and the profile adblocks, the
    /// session reuses that compiled list instead of compiling its own —
    /// the serving layer's cross-request artifact share. Profiles
    /// without adblock ignore it; `None` preserves the per-session
    /// compile exactly.
    pub fn launch_with(
        profile: BrowserProfile,
        uid: u32,
        seed: u64,
        mode: BrowsingMode,
        shared_filter: Option<Arc<FilterList>>,
    ) -> Browser {
        assert!(
            mode == BrowsingMode::Normal || profile.supports_incognito,
            "{} does not provide an incognito mode (paper footnote 5)",
            profile.name
        );
        let mut trust = TrustStore::system();
        trust.install(CaId::mitm());
        let pinned: Vec<&str> = profile.pinned_domains.iter().map(String::as_str).collect();
        let client = ClientTemplate {
            uid,
            package: profile.package.as_str().into(),
            trust,
            pins: PinPolicy::pin(&pinned),
        };
        let filter = if profile.adblock {
            Some(shared_filter.unwrap_or_else(|| Arc::new(easylist_excerpt())))
        } else {
            None
        };
        let session = EngineSession::with_filter(
            profile.resolver,
            filter,
            profile.attempts_h3,
            &profile.name,
            &profile.version,
        );
        let rng = StdRng::seed_from_u64(seed ^ uid as u64);
        Browser { profile, mode, client, session, seed, rng }
    }

    /// The kernel UID this instance runs under.
    pub fn uid(&self) -> u32 {
        self.client.uid
    }

    fn send_native(
        &mut self,
        env: &mut Env<'_>,
        call: &NativeCall,
        visit: Option<&Url>,
    ) -> u32 {
        if self.mode == BrowsingMode::Incognito && call.respects_incognito {
            return 0;
        }
        // §2.1's wizard configurations: vendors that honour the telemetry
        // prompt skip their telemetry when the user declined. The others
        // keep transmitting (Listing 1's `userConsent:"false"`).
        if self.profile.honors_telemetry_consent
            && matches!(call.payload, crate::profile::Payload::Telemetry)
            && env.data.pref("telemetry-consent") == Some("denied")
        {
            return 0;
        }
        let mut sent = 0;
        for copy in 0..call.count {
            let mut ctx = PayloadCtx {
                props: env.props,
                data: env.data,
                profile: &self.profile,
                seed: self.seed,
                now: env.clock.now(),
                user_agent: self.session.user_agent().clone(),
            };
            let req = build_native_request(call, &mut ctx, visit, copy);
            // Native traffic resolves through the same mechanism the
            // browser's stack uses — but without the taint tap.
            let mut stats = EngineStats::default();
            self.session
                .ensure_resolved(env.net, &self.client, env.clock, &call.host, &mut stats);
            match env.net.send_http(&self.client.ctx(env.clock.now()), req) {
                Ok((_, report)) => {
                    env.clock.advance(SimDuration(report.latency.0 / 4));
                    sent += 1;
                }
                Err(_) => {
                    // Pinned / unreachable: request never completes;
                    // the proxy recorded what it could.
                }
            }
            sent += stats.doh_lookups;
        }
        sent
    }

    /// App launch: fires the startup catalogue (update checks, config
    /// fetches). Returns the number of native requests sent.
    pub fn startup(&mut self, env: &mut Env<'_>) -> u32 {
        let calls = self.profile.startup.clone();
        let mut sent = 0;
        for call in &calls {
            sent += self.send_native(env, call, None);
        }
        sent
    }

    /// Visits a site: engine page load plus the per-visit native calls
    /// (phone-homes, telemetry, ad SDKs).
    pub fn visit(&mut self, env: &mut Env<'_>, site: &SiteSpec) -> VisitOutcome {
        let mut persistent_jar = std::mem::take(&mut env.data.cookies);
        let (engine, dcl) = self.session.load_page(
            env.net,
            &self.client,
            env.clock,
            env.tap.as_ref(),
            &mut persistent_jar,
            self.mode == BrowsingMode::Incognito,
            site,
            env.props,
            self.profile.injects_js_collector.as_deref(),
        );
        env.data.cookies = persistent_jar;

        // DoH lookups triggered by the page load are native traffic too.
        let mut native_sent = engine.doh_lookups;
        let calls = self.profile.per_visit.clone();
        for call in &calls {
            native_sent += self.send_native(env, call, Some(&site.url));
        }

        VisitOutcome {
            url: site.url.as_str().to_owned(),
            engine,
            native_sent,
            dom_content_loaded_at: dcl,
        }
    }

    /// Runs the idle experiment (§3.5): the browser sits at its start
    /// page for `total` and its idle catalogue fires. Returns the number
    /// of native requests sent.
    ///
    /// The burst calls fire with exponentially growing gaps inside the
    /// first minute (favicon/thumbnail/DNS refresh — the paper's
    /// explanation of the early exponential growth); the periodic calls
    /// produce the plateau, or Opera's linear news-feed climb.
    pub fn idle(&mut self, env: &mut Env<'_>, total: SimDuration) -> u32 {
        let start = env.clock.now();
        let mut queue: EventQueue<NativeCall> = EventQueue::new();

        // Burst schedule: gaps 0.5s, 0.85s, 1.4s, ... (×1.7), capped to
        // the first minute.
        let mut offset = SimDuration::ZERO;
        let mut gap_us = 500_000u64;
        for call in &self.profile.idle.burst {
            offset += SimDuration(gap_us);
            gap_us = (gap_us as f64 * 1.7) as u64;
            if offset > SimDuration::from_secs(60) || offset > total {
                break;
            }
            queue.push(start.plus(offset), call.clone());
        }
        // Periodic schedule.
        for (interval_secs, call) in &self.profile.idle.periodic {
            let interval = SimDuration::from_secs(*interval_secs);
            let mut at = interval;
            while at <= total {
                queue.push(start.plus(at), call.clone());
                at += interval;
            }
        }

        let mut sent = 0;
        let deadline = start.plus(total);
        for (at, call) in queue.drain_until(deadline) {
            if at > env.clock.now() {
                env.clock.advance_to(at);
            }
            sent += self.send_native(env, &call, None);
        }
        if env.clock.now() < deadline {
            env.clock.advance_to(deadline);
        }
        sent
    }

    /// Read access to the engine session (tests, diagnostics).
    pub fn engine(&self) -> &EngineSession {
        &self.session
    }
}
