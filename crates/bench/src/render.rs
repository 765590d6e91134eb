//! Markdown rendering of every table and figure.
//!
//! Every renderer consumes the fused engine's per-campaign products
//! ([`CampaignAnalysis`] / [`IdleAnalysis`]) so the whole report costs
//! one pass over each capture, however many sections are printed.
//! [`listing1`] is the one exception: it quotes a raw captured flow, so
//! it still reads the campaign's store.

use panoptes::campaign::CampaignResult;
use panoptes_analysis::dns::ObservedResolver;
use panoptes_analysis::engine::{CampaignAnalysis, IdleAnalysis};
use panoptes_analysis::history::{LeakChannel, LeakGranularity};
use panoptes_analysis::incognito;
use panoptes_browsers::PiiField;
use panoptes_simnet::clock::SimDuration;

/// Table 1: the browser dataset.
pub fn table1(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from("## Table 1 — Browser dataset\n\n| Browser | Version |\n|---|---|\n");
    for a in analyses {
        out.push_str(&format!("| {} | {} |\n", a.browser, a.version));
    }
    out
}

/// Figure 2: request counts + native/engine ratio.
pub fn fig2(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## Figure 2 — Requests: website (engine) vs browser (native)\n\n\
         | Browser | Engine reqs | Native reqs | Native/Engine |\n|---|---|---|---|\n",
    );
    for a in analyses {
        let row = &a.volume;
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} |\n",
            row.browser, row.engine_requests, row.native_requests, row.request_ratio
        ));
    }
    out
}

/// Figure 3: % of native-contact domains that are ad-related.
pub fn fig3(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## Figure 3 — Native destinations that are third-party/ad domains\n\n\
         | Browser | Native hosts | Ad hosts | Ad % |\n|---|---|---|---|\n",
    );
    for a in analyses {
        let row = &a.addomains;
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% |\n",
            row.browser,
            row.native_hosts.len(),
            row.ad_hosts.len(),
            row.ad_percent
        ));
    }
    out
}

/// Figure 4: outgoing traffic volume.
pub fn fig4(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## Figure 4 — Outgoing volume: website vs browser-native\n\n\
         | Browser | Engine bytes | Native bytes | Native/Engine |\n|---|---|---|---|\n",
    );
    for a in analyses {
        let row = &a.volume;
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} |\n",
            row.browser, row.engine_bytes, row.native_bytes, row.volume_ratio
        ));
    }
    out
}

/// Table 2: the PII matrix.
pub fn table2_md(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from("## Table 2 — PII / device info leaked natively\n\n| Browser |");
    for f in PiiField::ALL {
        out.push_str(&format!(" {} |", f.label()));
    }
    out.push_str("\n|---|");
    out.push_str(&"---|".repeat(12));
    out.push('\n');
    for a in analyses {
        out.push_str(&format!("| {} |", a.pii.browser));
        for f in PiiField::ALL {
            out.push_str(if a.pii.leaks(f) { " Yes |" } else { " No |" });
        }
        out.push('\n');
    }
    out
}

/// §3.2: the history-leak findings.
pub fn leaks_md(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## §3.2 — Browsing-history leaks\n\n\
         | Browser | Granularity | Destination(s) | Encoding | Channel | Persistent ID |\n\
         |---|---|---|---|---|---|\n",
    );
    for a in analyses {
        for l in &a.history_leaks {
            out.push_str(&format!(
                "| {} | {} | {} | {:?} | {} | {} |\n",
                l.browser,
                l.granularity.as_str(),
                l.destination,
                l.encoding,
                match l.channel {
                    LeakChannel::NativeRequest => "native",
                    LeakChannel::InjectedScript => "injected JS",
                },
                l.persistent_id.as_deref().map(|id| &id[..12.min(id.len())]).unwrap_or("—"),
            ));
        }
    }
    out
}

/// §3.2: the DoH/stub split.
pub fn dns_md(analyses: &[CampaignAnalysis]) -> String {
    let doh = analyses
        .iter()
        .filter(|a| matches!(a.dns.resolver, ObservedResolver::Doh(_)))
        .count();
    let stub =
        analyses.iter().filter(|a| a.dns.resolver == ObservedResolver::LocalStub).count();
    let mut out = format!(
        "## §3.2 — DNS behaviour ({doh} DoH / {stub} stub)\n\n| Browser | Resolver | Lookups |\n|---|---|---|\n"
    );
    for a in analyses {
        let row = &a.dns;
        let resolver = match row.resolver {
            ObservedResolver::LocalStub => "local stub".to_string(),
            ObservedResolver::Doh(p) => format!("DoH ({})", p.host()),
            ObservedResolver::None => "none observed".to_string(),
        };
        out.push_str(&format!("| {} | {} | {} |\n", row.browser, resolver, row.lookups));
    }
    out
}

/// §3.2: incognito comparison (normal vs incognito campaign pairs).
pub fn incognito_md(pairs: &[(CampaignAnalysis, CampaignAnalysis)]) -> String {
    let mut out = String::from(
        "## §3.2 — Incognito mode\n\n| Browser | Normal | Incognito | Still leaks |\n|---|---|---|---|\n",
    );
    for (normal, incog) in pairs {
        let row = incognito::compare(normal, incog);
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            row.browser,
            row.normal.map(LeakGranularity::as_str).unwrap_or("—"),
            row.incognito.map(LeakGranularity::as_str).unwrap_or("—"),
            if row.still_leaks { "YES" } else { "no" },
        ));
    }
    out
}

/// §3.2: sensitive-category leaking.
pub fn sensitive_md(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## §3.2 — Sensitive-category visits leaked in full\n\n\
         | Browser | Sensitive visits | Leaked in full | Example |\n|---|---|---|---|\n",
    );
    for a in analyses {
        let row = &a.sensitive;
        if row.sensitive_urls_leaked == 0 {
            continue;
        }
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            row.browser,
            row.sensitive_visits,
            row.sensitive_urls_leaked,
            row.example.as_deref().unwrap_or("—"),
        ));
    }
    out
}

/// §3.4: international transfers.
pub fn transfers_md(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## §3.4 — International data transfers of history leaks\n\n\
         | Browser | Granularity | Destination | Country | Outside EU |\n|---|---|---|---|---|\n",
    );
    for row in analyses.iter().filter_map(|a| a.transfers.as_ref()) {
        for (host, country) in &row.destinations {
            out.push_str(&format!(
                "| {} | {} | {} | {} ({}) | {} |\n",
                row.browser,
                row.granularity.as_str(),
                host,
                country.name(),
                country,
                if country.is_eu() { "no" } else { "YES" },
            ));
        }
    }
    out
}

/// Figure 5: idle timelines (cumulative counts at checkpoints).
pub fn fig5(analyses: &[IdleAnalysis]) -> String {
    let checkpoints = [30u64, 60, 120, 300, 600];
    let mut out = String::from("## Figure 5 — Native requests while idle (cumulative)\n\n| Browser |");
    for c in checkpoints {
        out.push_str(&format!(" {c}s |"));
    }
    out.push_str(" 1st-min share |\n|---|");
    out.push_str(&"---|".repeat(checkpoints.len() + 1));
    out.push('\n');
    for a in analyses {
        let tl = a.timeline(SimDuration::from_secs(10));
        out.push_str(&format!("| {} |", a.browser));
        for c in checkpoints {
            out.push_str(&format!(" {} |", tl.at(c)));
        }
        out.push_str(&format!(" {:.0}% |\n", tl.first_minute_share() * 100.0));
    }
    out
}

/// §3.5: idle destination shares (top 3 per browser).
pub fn idle_dest_md(analyses: &[IdleAnalysis]) -> String {
    let mut out = String::from(
        "## §3.5 — Idle destinations (top 3 per browser)\n\n| Browser | Destination | Share |\n|---|---|---|\n",
    );
    for a in analyses {
        for share in a.destination_shares().into_iter().take(3) {
            out.push_str(&format!(
                "| {} | {} | {:.1}% |\n",
                a.browser, share.domain, share.percent
            ));
        }
    }
    out
}

/// Listing 1: an actual captured Opera ad-SDK request body.
pub fn listing1(results: &[CampaignResult]) -> String {
    let opera = results.iter().find(|r| r.profile.name == "Opera");
    let Some(opera) = opera else {
        return String::from("(no Opera campaign in this run)\n");
    };
    let snap = opera.store.snapshot();
    let flow = snap.native().iter().find(|f| f.host == "s-odx.oleads.com");
    match flow {
        Some(f) => format!(
            "## Listing 1 — Native ad request issued by Opera\n\n```\nPOST {}\nbody: {}\n```\n",
            f.url, f.request_body
        ),
        None => String::from("(no oleads flow captured)\n"),
    }
}

/// §3.3 — stable identifiers observed at native destinations.
pub fn identifiers_md(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## §3.3 — Stable identifiers at native destinations\n\n| Browser | Destination | Key | Flows | Ad-related |\n|---|---|---|---|---|\n",
    );
    for a in analyses {
        for s in &a.identifiers {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                s.browser,
                s.destination,
                s.key,
                s.flows,
                if s.ad_related { "YES" } else { "no" },
            ));
        }
    }
    out
}

/// §3.1 — the user-borne cost of native tracking.
pub fn cost_md(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## §3.1 — User-borne cost of native tracking (per 1000 pages)\n\n| Browser | Native flows | Native bytes | Data plan (MB) | Radio energy, LTE (J) |\n|---|---|---|---|---|\n",
    );
    let mut rows: Vec<_> = analyses.iter().map(|a| &a.cost).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.native_bytes));
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.0} |\n",
            row.browser, row.native_flows, row.native_bytes, row.mb_per_1000_pages, row.joules_per_1000_pages
        ));
    }
    out
}

/// Figure 2/4 as CSV (plot-ready).
pub fn fig2_csv(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "browser,engine_requests,native_requests,request_ratio,engine_bytes,native_bytes,volume_ratio\n",
    );
    for a in analyses {
        let r = &a.volume;
        out.push_str(&format!(
            "{},{},{},{:.4},{},{},{:.4}\n",
            r.browser,
            r.engine_requests,
            r.native_requests,
            r.request_ratio,
            r.engine_bytes,
            r.native_bytes,
            r.volume_ratio
        ));
    }
    out
}

/// Figure 3 as CSV.
pub fn fig3_csv(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from("browser,native_hosts,ad_hosts,ad_percent\n");
    for a in analyses {
        let r = &a.addomains;
        out.push_str(&format!(
            "{},{},{},{:.2}\n",
            r.browser,
            r.native_hosts.len(),
            r.ad_hosts.len(),
            r.ad_percent
        ));
    }
    out
}

/// Figure 5 as CSV: one row per (browser, bucket) with the cumulative
/// count — the exact series the paper plots.
pub fn fig5_csv(analyses: &[IdleAnalysis], bucket: SimDuration) -> String {
    let mut out = String::from("browser,seconds,cumulative_native_requests\n");
    for a in analyses {
        let tl = a.timeline(bucket);
        for (t, n) in &tl.cumulative {
            out.push_str(&format!("{},{},{}\n", a.browser, t, n));
        }
    }
    out
}

/// §3.2 roll-up: one line per leaking browser.
pub fn leak_summary_md(analyses: &[CampaignAnalysis]) -> String {
    let mut out = String::from(
        "## §3.2 — Leak summary\n\n| Browser | Worst granularity | Destinations | Persistent ID | Via JS injection |\n|---|---|---|---|---|\n",
    );
    for a in analyses {
        let s = a.leak_summary();
        if s.worst.is_none() {
            continue;
        }
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            s.browser,
            s.worst.map(LeakGranularity::as_str).unwrap_or("—"),
            s.destinations.join(", "),
            if s.persistent { "YES" } else { "no" },
            if s.via_injection { "YES" } else { "no" },
        ));
    }
    out
}

// ---------------------------------------------------------------------
// The full study document, as `repro` prints it.
//
// `repro` writes each section with `println!` (section string + one
// extra newline); these builders reproduce those exact bytes so the
// study server can stream sections over HTTP and still be
// byte-identical to the offline binary — identity by construction, not
// by parallel maintenance of two formatting paths.
//
// The document comes in three dependency groups, matching what a
// streaming producer has ready when: [`header_md`] (world parameters
// only), [`crawl_sections`] (crawl analyses), [`incognito_section`]
// (the three §3.2 re-crawl pairs), [`idle_sections`] (idle analyses).

use crate::experiments::Scale;

/// The document header line, exactly as `repro` emits it (including
/// the blank separator line).
pub fn header_md(scale: &Scale) -> String {
    let tail_note =
        if scale.tail > 0 { format!(" + {} tail", scale.tail) } else { String::new() };
    format!(
        "# Panoptes reproduction run ({} popular + {} sensitive{} sites, seed {:#x})\n\n",
        scale.popular, scale.sensitive, tail_note, scale.seed
    )
}

/// The crawl-derived sections in `repro` order, as `(section, bytes)`
/// pairs. Each entry's bytes are exactly what `repro` writes for that
/// `--only` section (the section string plus `println!`'s newline);
/// `leaks` covers both of its printed tables.
pub fn crawl_sections(
    results: &[CampaignResult],
    analyses: &[CampaignAnalysis],
) -> Vec<(&'static str, String)> {
    vec![
        ("table1", format!("{}\n", table1(analyses))),
        ("fig2", format!("{}\n", fig2(analyses))),
        ("fig3", format!("{}\n", fig3(analyses))),
        ("fig4", format!("{}\n", fig4(analyses))),
        ("table2", format!("{}\n", table2_md(analyses))),
        ("leaks", format!("{}\n{}\n", leaks_md(analyses), leak_summary_md(analyses))),
        ("dns", format!("{}\n", dns_md(analyses))),
        ("sensitive", format!("{}\n", sensitive_md(analyses))),
        ("transfers", format!("{}\n", transfers_md(analyses))),
        ("listing1", format!("{}\n", listing1(results))),
        ("identifiers", format!("{}\n", identifiers_md(analyses))),
        ("cost", format!("{}\n", cost_md(analyses))),
    ]
}

/// The §3.2 incognito section from the three re-crawl pairs.
pub fn incognito_section(
    pairs: &[(CampaignAnalysis, CampaignAnalysis)],
) -> (&'static str, String) {
    ("incognito", format!("{}\n", incognito_md(pairs)))
}

/// The idle-derived sections (`fig5`, `idle-dest`) in `repro` order.
pub fn idle_sections(analyses: &[IdleAnalysis]) -> Vec<(&'static str, String)> {
    vec![
        ("fig5", format!("{}\n", fig5(analyses))),
        ("idle-dest", format!("{}\n", idle_dest_md(analyses))),
    ]
}

/// The complete study document: header + every section in `repro`
/// order — the byte-identity reference for served studies.
pub fn full_doc(
    scale: &Scale,
    results: &[CampaignResult],
    crawls: &[CampaignAnalysis],
    incognito_pairs: &[(CampaignAnalysis, CampaignAnalysis)],
    idles: &[IdleAnalysis],
) -> String {
    let mut out = header_md(scale);
    for (_, text) in crawl_sections(results, crawls) {
        out.push_str(&text);
    }
    out.push_str(&incognito_section(incognito_pairs).1);
    for (_, text) in idle_sections(idles) {
        out.push_str(&text);
    }
    out
}
