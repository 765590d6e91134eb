//! The study server daemon.
//!
//! ```text
//! serve [--port N] [--workers N] [--cache-budget-mb N] [--no-cache]
//!       [--max-active N] [--max-waiting N] [--narrate]
//!       [--flightrec DIR] [--watchdog-secs N]
//! ```
//!
//! Serves `GET /study` (streamed study results, byte-identical to
//! offline `repro`), `GET /healthz`, and `GET /metrics` on
//! `127.0.0.1`. Runs until killed.
//!
//! Observability flags: `--flightrec DIR` arms the stall watchdog and
//! panic hook, writing post-mortems under `DIR` (readable with
//! `panoptes-doctor`); `--watchdog-secs N` sets the no-progress
//! deadline the watchdog enforces.

use panoptes_serve::server::{self, ServerConfig};

// The counting allocator makes the artifact cache's byte accounting
// live (without it every artifact is charged its floor estimate).
#[global_allocator]
static ALLOC: panoptes_bench::mem::CountingAlloc = panoptes_bench::mem::CountingAlloc;

fn main() {
    let mut port: u16 = 7340;
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next_number = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a number")))
        };
        match arg.as_str() {
            "--port" => port = next_number("--port") as u16,
            "--workers" => config.workers = (next_number("--workers") as usize).max(1),
            "--cache-budget-mb" => {
                config.cache_budget = Some(next_number("--cache-budget-mb") << 20);
            }
            "--no-cache" => config.cache_budget = None,
            "--max-active" => config.max_active = (next_number("--max-active") as usize).max(1),
            "--max-waiting" => config.max_waiting = next_number("--max-waiting") as usize,
            "--narrate" => config.narrate = true,
            "--flightrec" => {
                let Some(dir) = args.next() else {
                    die("--flightrec needs a directory")
                };
                config.flightrec_dir = Some(std::path::PathBuf::from(dir));
            }
            "--watchdog-secs" => {
                config.watchdog_deadline = Some(std::time::Duration::from_secs(next_number(
                    "--watchdog-secs",
                )));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve [--port N] [--workers N] [--cache-budget-mb N] [--no-cache] \
                     [--max-active N] [--max-waiting N] [--narrate] \
                     [--flightrec DIR] [--watchdog-secs N]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }

    let cache_note = match config.cache_budget {
        Some(bytes) => format!("cache {} MiB", bytes >> 20),
        None => "cache disabled".to_string(),
    };
    let handle = match server::spawn(port, config.clone()) {
        Ok(handle) => handle,
        Err(e) => die(&format!("bind 127.0.0.1:{port} failed: {e}")),
    };
    eprintln!(
        "panoptes-serve listening on http://{} ({} workers, {cache_note}, {} active / {} waiting)",
        handle.addr, config.workers, config.max_active, config.max_waiting
    );
    loop {
        std::thread::park();
    }
}

fn die(message: &str) -> ! {
    eprintln!("serve: {message}");
    std::process::exit(2);
}
