//! Driving the real `serve` binary: start it as a child process in its
//! shipped defaults, wait until it accepts requests, read its exported
//! counters, put closed-loop load on it and stop it.

use server::client::Connection;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawn `serve` with `args` (beyond the port flags) and wait until
    /// `/health` answers. The environment's fault plan and telemetry
    /// switches are removed so the daemon runs as shipped.
    pub fn start(bin: &Path, workdir: &Path, args: &[String]) -> Result<Daemon, String> {
        let port_file = workdir.join("serve.port");
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(workdir.join("serve.log"))
            .map_err(|e| format!("cannot open serve.log: {e}"))?;
        let child = Command::new(bin)
            .arg("--port")
            .arg("0")
            .arg("--port-file")
            .arg(&port_file)
            .args(args)
            .env_remove("FAULT_SPEC")
            .env_remove("FAULT_SEED")
            .env_remove("TELEMETRY")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(status) = daemon.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("serve did not start within 120 s".into());
            }
            let port = std::fs::read_to_string(&port_file).unwrap_or_default();
            if port.ends_with('\n') {
                daemon.addr = format!("127.0.0.1:{}", port.trim());
                if matches!(get(&daemon.addr, "/health"), Ok((200, _))) {
                    return Ok(daemon);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful stop through `/shutdown`, then wait for the process.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = post(&self.addr, "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("serve did not drain within 30 s".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

pub fn get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    Connection::new(addr).get(path)
}

pub fn post(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    Connection::new(addr).post(path, body)
}

/// One counter of the daemon's Prometheus `/metrics` page (0 when the
/// counter has not fired yet: zero counters are not rendered).
pub fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            (key == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .map_or(0, |v| v as u64)
}

pub fn metrics(addr: &str) -> Result<String, String> {
    match get(addr, "/metrics") {
        Ok((200, body)) => Ok(body),
        other => Err(format!("GET /metrics failed: {other:?}")),
    }
}

/// A numeric field of a flat JSON object such as `/v1/index/status`.
pub fn json_number(body: &str, field: &str) -> Option<f64> {
    telemetry::json::parse(body).ok()?.get(field)?.as_f64()
}

/// One request of a closed loop.
pub struct Exchange {
    /// Stream index of the request.
    pub index: u64,
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    /// HTTP status; 0 when the exchange failed at the transport.
    pub status: u16,
    pub body: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

impl Exchange {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Send `bodies` to `path` one after another on one keep-alive
/// connection, timing each exchange.
pub fn single_client(
    addr: &str,
    path: &str,
    bodies: impl Iterator<Item = (u64, String)>,
) -> Result<Vec<Exchange>, String> {
    let mut conn = Connection::new(addr);
    let mut out = Vec::new();
    for (index, body) in bodies {
        let start = Instant::now();
        let (status, response) = conn.post(path, &body).map_err(|e| e.to_string())?;
        out.push(Exchange {
            index,
            kind: Kind::Read,
            start,
            end: Instant::now(),
            status,
            body: response,
        });
    }
    Ok(out)
}

/// Successful operations per second: every success of the measured
/// phase over its whole wall time, stalls included.
pub fn ops_per_s(succeeded: usize, wall: Duration) -> f64 {
    succeeded as f64 / wall.as_secs_f64()
}

/// The measured phase, the same in both modes: `CLIENTS` closed-loop
/// clients, each on its own keep-alive connection, until `duration` has
/// passed; a client sends its next request only after the previous
/// response arrived. `request(i)` gives the (kind, path, body) of stream
/// index `i`; indices are handed out in order from 0. Returns every
/// exchange and the wall time from the first send to the last response.
/// A traced run then records a client-side span per exchange from the
/// timestamps already taken, so tracing changes nothing the daemon sees
/// (`bench.trace_overhead` is 1).
pub fn measured_phase<F>(
    addr: &str,
    duration: Duration,
    tracer: Option<&crate::trace::Tracer>,
    request: F,
) -> (Vec<Exchange>, Duration)
where
    F: Fn(u64) -> (Kind, &'static str, String) + Sync,
{
    let next = AtomicU64::new(0);
    let all = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..crate::CLIENTS {
            scope.spawn(|| {
                let mut conn = Connection::new(addr);
                let _ = conn.connect();
                let mut mine = Vec::new();
                while started.elapsed() < duration {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let (kind, path, body) = request(index);
                    if !conn.is_connected() {
                        let _ = conn.connect();
                    }
                    let start = Instant::now();
                    // send + recv rather than `request_full`, which
                    // silently retries once on a reused socket.
                    let outcome = conn
                        .send("POST", path, &body, &[])
                        .and_then(|()| conn.recv());
                    let end = Instant::now();
                    let (status, body) = match outcome {
                        Ok(response) => (response.status, response.body),
                        Err(e) => (0, e.to_string()),
                    };
                    mine.push(Exchange {
                        index,
                        kind,
                        start,
                        end,
                        status,
                        body,
                    });
                }
                all.lock().expect("exchange buffer poisoned").extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    let mut all = all.into_inner().expect("exchange buffer poisoned");
    all.sort_by_key(|e| e.index);
    if let Some(tracer) = tracer {
        for e in &all {
            tracer.record("server.request", e.start, e.end, e.index);
        }
    }
    (all, wall)
}

/// Scratch directory of one run inside the checkout.
pub fn workdir(root: &Path, workload: &str) -> Result<PathBuf, String> {
    let dir = root
        .join(".bench_run")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_read_by_exact_name() {
        let page = "# TYPE api_cache_hits_total counter\napi_cache_hits_total 3\n\
                    api_response_cache_hits_total 0\nwal_appends_total 12\n";
        assert_eq!(counter(page, "api_cache_hits_total"), 3);
        assert_eq!(counter(page, "api_response_cache_hits_total"), 0);
        assert_eq!(counter(page, "wal_appends_total"), 12);
        assert_eq!(counter(page, "wal_fsyncs_total"), 0);
    }
}
