//! Child processes of the benchmark: the `cordial-cli serve` daemon and
//! timed one-shot commands, each killed and reaped when dropped.

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use cordial_benchmark::MODEL_SEED;
use cordial_obs::Snapshot;

/// Longest wait for a daemon to listen (it trains, and may replay a
/// journal, first).
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A scratch directory removed when dropped, on success and failure alike.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates (afresh) `path`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn create(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A child process killed (SIGKILL) and reaped when dropped.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running `cordial-cli serve`, killed with SIGKILL when dropped.
pub struct Daemon {
    child: Reaped,
    log: PathBuf,
    /// Wire-protocol address.
    pub addr: String,
    /// `/metrics` address.
    pub metrics_addr: String,
}

impl Daemon {
    /// Spawns `cli serve` with the benchmark's model seed, journaling to
    /// `store` with `fsync always`, and waits until it listens. Returns the daemon and the seconds from
    /// spawn to its metrics port file, the last thing it writes once
    /// bound. Output goes to a log in `dir`, shown only on failure.
    ///
    /// # Errors
    ///
    /// Spawn failures, and a daemon that exits or stays silent.
    pub fn spawn(cli: &Path, store: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        let log = dir.join("daemon.log");
        let port_file = dir.join("port");
        let metrics_file = dir.join("metrics-port");
        let out = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(cli)
            .arg("serve")
            .args(["--scale", "small", "--seed"])
            .arg(MODEL_SEED.to_string())
            .args(["--shards", "2", "--fsync", "always"])
            .arg("--store-dir")
            .arg(store)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--metrics-port-file")
            .arg(&metrics_file)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let mut daemon = Daemon {
            child: Reaped(child),
            log,
            addr: String::new(),
            metrics_addr: String::new(),
        };
        loop {
            if let Some(metrics_addr) = read_addr(&metrics_file) {
                let ready_s = started.elapsed().as_secs_f64();
                daemon.metrics_addr = metrics_addr;
                daemon.addr = read_addr(&port_file)
                    .ok_or_else(|| daemon.failure("wrote its metrics port before its port"))?;
                return Ok((daemon, ready_s));
            }
            if let Ok(Some(status)) = daemon.child.0.try_wait() {
                return Err(daemon.failure(&format!("exited with {status} before listening")));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(daemon.failure("did not listen within 120 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Describes a daemon failure, with its log.
    pub fn failure(&self, what: &str) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        format!("daemon {what}; its output:\n{log}")
    }

    /// The daemon's peak resident memory so far, in MB.
    ///
    /// # Errors
    ///
    /// An unreadable `/proc` entry.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.0.id()).ok_or_else(|| "cannot read the daemon's VmHWM".to_string())
    }

    /// Scrapes `/metrics`.
    ///
    /// # Errors
    ///
    /// Transport failures and an unparsable exposition.
    pub fn scrape(&self) -> Result<Snapshot, String> {
        let mut stream = TcpStream::connect(&self.metrics_addr).map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .map_err(|e| e.to_string())?;
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .ok_or("malformed /metrics response")?;
        cordial_obs::export::parse_prometheus(body)
    }
}

/// Reads an address file once the daemon has finished writing it.
fn read_addr(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.ends_with('\n').then(|| text.trim().to_string())
}

/// `VmHWM` of process `pid`, in MB; `None` once it has exited.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one timed command did.
pub struct Finished {
    /// Wall time from spawn to exit.
    pub wall_s: f64,
    /// Peak resident memory, sampled every 10 ms while it ran.
    pub rss_mb: f64,
    /// Exit status.
    pub status: ExitStatus,
}

/// Runs `command` to completion with its output in `log`. With
/// `sample_rss`, samples its peak memory every 10 ms while it runs
/// (which delays noticing the exit by up to that much); without, waits
/// for the exit directly.
///
/// # Errors
///
/// Spawn and wait failures.
pub fn run_timed(command: &mut Command, log: &Path, sample_rss: bool) -> Result<Finished, String> {
    let out = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut child = Reaped(
        command
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {command:?}: {e}"))?,
    );
    let mut rss_mb = 0.0f64;
    let status = loop {
        if !sample_rss {
            break child.0.wait().map_err(|e| e.to_string())?;
        }
        if let Some(status) = child.0.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if let Some(mb) = peak_rss_mb(child.0.id()) {
            rss_mb = rss_mb.max(mb);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Ok(Finished {
        wall_s: started.elapsed().as_secs_f64(),
        rss_mb,
        status,
    })
}
