//! The compiled filterlist engine's speed floor: on a synthetic
//! 1,524-rule easylist and a 2,000-URL workload it must decide exactly
//! as the linear reference scan does on every URL, and be at least
//! [`MIN_SPEEDUP`]× faster.
//!
//! Both workloads are arithmetic (no RNG), so every run on every host
//! does the same work. The arms time the whole workload, interleaved
//! rep by rep after an untimed warm-up of each, and the ratio compares
//! their best reps, so host drift lands on both arms.

use std::time::Instant;

use panoptes_blocklist::FilterList;

/// Floor on best(linear) / best(compiled). On a 2-CPU x86-64 VM the
/// ratio read 223–233× in debug and 141–197× in release (the linear
/// scan allocates a lowercased copy per rule, which costs relatively
/// more in debug); the floor sits well under both, so host noise does
/// not trip it, while a compiled path that fell back to scanning rule
/// by rule would.
const MIN_SPEEDUP: f64 = 100.0;

const WARMUPS: usize = 1;
const REPS: usize = 5;

/// `anchors` domain-anchor rules, `substrings` bare-token rules, and
/// one exception per 50 anchors, in easylist syntax.
fn synthetic_filterlist(anchors: usize, substrings: usize) -> FilterList {
    let mut text = String::from("! synthetic benchmark list\n");
    for i in 0..anchors {
        text.push_str(&format!("||ad{i:04}.tracker{:02}.com^\n", i % 37));
        if i % 50 == 0 {
            text.push_str(&format!("@@||ad{i:04}.tracker{:02}.com/allowed^\n", i % 37));
        }
    }
    for i in 0..substrings {
        text.push_str(&format!("/sdk{i:03}ping/\n"));
    }
    FilterList::parse(&text)
}

/// `(host, url)` pairs against [`synthetic_filterlist`]: mostly clean
/// traffic, as on the real web, with periodic anchor, subdomain and
/// substring hits.
fn filterlist_workload(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| match i % 10 {
            // Anchor hit on the exact domain.
            0 => {
                let k = (i / 10) % 1200;
                let host = format!("ad{k:04}.tracker{:02}.com", k % 37);
                let url = format!("https://{host}/bid?slot={i}");
                (host, url)
            }
            // Anchor hit via a subdomain.
            1 => {
                let k = (i / 10) % 1200;
                let host = format!("cdn{}.ad{k:04}.tracker{:02}.com", i % 7, k % 37);
                let url = format!("https://{host}/pixel");
                (host, url)
            }
            // Substring hit on the path.
            2 => {
                let k = (i / 10) % 300;
                let host = format!("site{}.example", i % 53);
                let url = format!("https://{host}/assets/sdk{k:03}ping/v2?uid={i}");
                (host, url)
            }
            // Clean traffic.
            _ => {
                let host = format!("news{}.example.org", i % 211);
                let url = format!("https://{host}/story/{i}/index.html?ref=home&page={}", i % 9);
                (host, url)
            }
        })
        .collect()
}

/// Seconds `f` took.
fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

#[test]
fn compiled_engine_agrees_with_the_linear_scan_and_is_100x_faster() {
    let list = synthetic_filterlist(1200, 300);
    assert_eq!(list.len(), 1524, "1,200 anchors, 24 exceptions, 300 substrings");
    let urls = filterlist_workload(2000);

    let mut hits = 0usize;
    for (host, url) in &urls {
        let compiled = list.should_block(host, url);
        assert_eq!(compiled, list.should_block_linear(host, url), "{host} {url}");
        hits += compiled as usize;
    }
    assert!(hits > 0 && hits < urls.len(), "the workload must both hit and miss: {hits}");

    let linear = || urls.iter().filter(|(h, u)| list.should_block_linear(h, u)).count();
    let compiled = || urls.iter().filter(|(h, u)| list.should_block(h, u)).count();
    for _ in 0..WARMUPS {
        std::hint::black_box((linear(), compiled()));
    }
    let (mut best_linear, mut best_compiled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        best_linear = best_linear.min(timed(|| assert_eq!(linear(), hits)));
        best_compiled = best_compiled.min(timed(|| assert_eq!(compiled(), hits)));
    }
    let speedup = best_linear / best_compiled;
    eprintln!(
        "filterlist: {} rules, {} urls, {hits} hits; linear {:.3} ms, compiled {:.3} ms, \
         {speedup:.1}x",
        list.len(),
        urls.len(),
        best_linear * 1e3,
        best_compiled * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "compiled filterlist speedup {speedup:.1}x below the required {MIN_SPEEDUP:.0}x over linear"
    );
}
