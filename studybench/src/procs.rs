//! The programs under test, run as their own processes and measured from
//! outside: wall time to the first and last byte of stdout, and the
//! kernel's peak-RSS figure for the process.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use panoptes_serve::client;

/// One finished process.
#[derive(Debug)]
pub struct Finished {
    /// When each read of stdout arrived (spawn → read) and how many bytes
    /// had arrived by then.
    pub arrivals: Vec<(Duration, usize)>,
    /// Spawn → last byte of stdout.
    pub last_byte: Duration,
    /// Everything it printed on stdout.
    pub stdout: Vec<u8>,
    /// Everything it printed on stderr.
    pub stderr: String,
    /// Exited with status 0.
    pub success: bool,
    /// Peak resident set size in KiB (the kernel's `ru_maxrss`, which is
    /// the process's `VmHWM`).
    pub peak_rss_kib: u64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns (exited with 0, peak RSS in KiB). The
/// standard library's `wait` drops the resource usage, so this calls
/// `wait4` directly.
fn reap(child: Child) -> io::Result<(bool, u64)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (`Child` never waits on
        // drop), and both pointers are to live locals of the types the
        // Linux `wait4` ABI writes: an `int` and a `struct rusage`.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_zero, u64::try_from(usage.maxrss).unwrap_or(0)))
}

/// Runs `command` to completion with stdout and stderr captured, timing
/// it from spawn.
pub fn run(command: &mut Command) -> io::Result<Finished> {
    let spawned = Instant::now();
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    let stderr = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = err_pipe.read_to_string(&mut text);
        text
    });
    let mut stdout = Vec::new();
    let mut arrivals = Vec::new();
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let mut buf = [0u8; 64 << 10];
    loop {
        let n = match pipe.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        stdout.extend_from_slice(&buf[..n]);
        arrivals.push((spawned.elapsed(), stdout.len()));
    }
    let last_byte = spawned.elapsed();
    let (success, peak_rss_kib) = reap(child)?;
    let stderr = stderr
        .join()
        .map_err(|_| io::Error::other("stderr reader panicked"))?;
    Ok(Finished {
        arrivals,
        last_byte,
        stdout,
        stderr,
        success,
        peak_rss_kib,
    })
}

impl Finished {
    /// Spawn → arrival of the stdout byte at `offset` (0-based), if the
    /// process printed that much.
    pub fn byte_at(&self, offset: usize) -> Option<Duration> {
        self.arrivals
            .iter()
            .find(|&&(_, total)| total > offset)
            .map(|&(at, _)| at)
    }
}

/// A `serve` process.
pub struct Server {
    child: Option<Child>,
    /// Where it listens.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Launches `serve` with no tuning flags on an ephemeral port and
    /// returns once `/healthz` answers.
    pub fn launch(binary: &Path) -> io::Result<Server> {
        let mut child = Command::new(binary)
            .args(["--port", "0"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = match listen_address(&mut lines) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let server = Server {
            child: Some(child),
            addr,
            stderr: Some(stderr),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while !matches!(client::get(server.addr, "/healthz"), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err(io::Error::other("serve never answered /healthz"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    /// The server's peak resident set size so far, in KiB (`VmHWM`).
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// The `/metrics` report.
    pub fn metrics(&self) -> io::Result<Metrics> {
        match client::get(self.addr, "/metrics")? {
            (200, body) => Ok(Metrics(body)),
            (status, _) => Err(io::Error::other(format!("/metrics answered {status}"))),
        }
    }

    /// Kills the server and waits for it and its stderr reader to end.
    pub fn stop(mut self) {
        self.shut_down();
    }

    fn shut_down(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// Reads `serve`'s stderr up to its "listening on http://ADDR" line.
fn listen_address(lines: &mut impl Iterator<Item = io::Result<String>>) -> io::Result<SocketAddr> {
    for line in lines {
        if let Some(rest) = line?.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            return addr
                .parse()
                .map_err(|_| io::Error::other(format!("bad listen address {addr:?}")));
        }
    }
    Err(io::Error::other("serve exited before listening"))
}

/// One `/metrics` report (the `panoptes_obs` run report as text).
#[derive(Debug, Clone)]
pub struct Metrics(pub String);

impl Metrics {
    fn fields(&self, name: &str) -> Option<Vec<&str>> {
        self.0.lines().find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(name)).then(|| words.collect())
        })
    }

    /// A counter's value (0 when the counter was never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.fields(name)
            .and_then(|f| f.first()?.parse().ok())
            .unwrap_or(0)
    }

    /// A gauge's `level=` or `high_water=` reading (0 when absent).
    pub fn gauge(&self, name: &str, key: &str) -> u64 {
        self.fields(name)
            .and_then(|f| {
                f.iter()
                    .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_report_fields_parse() {
        let report = Metrics(
            "== metrics: runtime (this execution only) ==\n  serve.cache.hits                             12\n  \
             serve.cache.bytes                            level=4096 high_water=8192\n  \
             serve.cache.hits.extra                       3\n"
                .to_string(),
        );
        assert_eq!(report.counter("serve.cache.hits"), 12);
        assert_eq!(report.counter("serve.cache.misses"), 0);
        assert_eq!(report.gauge("serve.cache.bytes", "level"), 4096);
        assert_eq!(report.gauge("serve.cache.bytes", "high_water"), 8192);
    }

    #[test]
    fn a_process_is_timed_and_its_peak_rss_read() {
        let done = run(Command::new("sh").args(["-c", "printf abc; echo oops >&2; exit 3"]))
            .expect("sh runs");
        assert_eq!(done.stdout, b"abc");
        assert_eq!(done.stderr, "oops\n");
        assert!(!done.success);
        assert!(done.byte_at(0).is_some_and(|t| t <= done.last_byte));
        assert_eq!(done.byte_at(3), None, "only three bytes");
        assert!(done.peak_rss_kib > 0);
        assert!(run(&mut Command::new("true")).expect("true runs").success);
    }
}
