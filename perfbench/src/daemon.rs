//! The daemon under test, hosted in a process of its own.
//!
//! The benchmark re-executes its own binary with `--daemon`; that child
//! binds a `scratch_serve::Server` on loopback and takes commands on
//! stdin: `usage` answers `usage <cpu_s> <peak_rss_kib>` (its own CPU
//! time and peak RSS), `stop` answers with the server's job spans (when
//! enabled), shuts the server down gracefully and ends with `bye`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use scratch_profile::JobSpans;
use scratch_serve::{ServeConfig, Server};
use scratch_wal::WalConfig;

use crate::os;

/// How the daemon is configured for one workload.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Engine workers.
    pub workers: usize,
    /// Simulated cycles per execution slice.
    pub quantum: u64,
    /// Write-ahead-log directory (created fresh, removed on teardown).
    pub wal_dir: PathBuf,
    /// Record the daemon's per-job span timelines.
    pub spans: bool,
}

/// The daemon's write-ahead-log settings: the library defaults (an fsync
/// at most every 100 ms, 64 MiB segments).
pub fn wal_config(dir: impl Into<PathBuf>) -> WalConfig {
    WalConfig::new(dir)
}

/// Entry point of the `--daemon` role.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("daemon: missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|e| format!("daemon: bad {flag}: {e}"))
    };
    let config = ServeConfig {
        workers: usize::try_from(num("--workers")?).map_err(|e| e.to_string())?,
        quantum_cycles: num("--quantum")?,
        wal: Some(wal_config(get("--wal")?)),
        spans: num("--spans")? == 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("daemon: bind: {e}"))?;
    let stdout = io::stdout();
    writeln!(stdout.lock(), "ready {}", server.addr()).map_err(|e| e.to_string())?;
    for line in io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut out = stdout.lock();
        match line.trim() {
            "usage" => {
                let rss = os::peak_rss_kib()?;
                writeln!(out, "usage {} {rss}", os::process_cpu_s()).map_err(|e| e.to_string())?;
            }
            "stop" => {
                for job in server.take_spans() {
                    let json = serde_json::to_string(&job).map_err(|e| e.to_string())?;
                    writeln!(out, "span {json}").map_err(|e| e.to_string())?;
                }
                break;
            }
            other => return Err(format!("daemon: unknown command `{other}`")),
        }
    }
    server.shutdown();
    let mut out = stdout.lock();
    writeln!(out, "bye").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// The parent's handle on a running daemon child. Dropping it kills and
/// reaps the child and removes its WAL directory.
pub struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    wal_dir: PathBuf,
}

impl Daemon {
    /// Spawn the daemon and wait until it listens.
    pub fn start(spec: &DaemonSpec) -> Result<Daemon, String> {
        remove_dir(&spec.wal_dir);
        // argv[0] names this binary as it was started (cargo passes its
        // full path); the child runs the same build in the daemon role.
        let exe = std::env::args_os()
            .next()
            .ok_or("argv[0] is missing, so the daemon binary cannot be named")?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .args(["--workers", &spec.workers.to_string()])
            .args(["--quantum", &spec.quantum.to_string()])
            .arg("--wal")
            .arg(&spec.wal_dir)
            .args(["--spans", if spec.spans { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            wal_dir: spec.wal_dir.clone(),
        };
        let line = daemon.read_line()?;
        daemon.addr = line
            .strip_prefix("ready ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not come up: `{line}`"))?;
        Ok(daemon)
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        if n == 0 {
            return Err("daemon exited unexpectedly".to_owned());
        }
        Ok(line.trim_end().to_owned())
    }

    fn command(&mut self, cmd: &str) -> Result<(), String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("daemon stdin: {e}"))
    }

    /// The daemon's CPU seconds and peak RSS (KiB) so far.
    pub fn usage(&mut self) -> Result<(f64, u64), String> {
        self.command("usage")?;
        let line = self.read_line()?;
        let mut it = line.split(' ');
        match (it.next(), it.next(), it.next()) {
            (Some("usage"), Some(cpu), Some(rss)) => Ok((
                cpu.parse()
                    .map_err(|_| format!("bad usage line `{line}`"))?,
                rss.parse()
                    .map_err(|_| format!("bad usage line `{line}`"))?,
            )),
            _ => Err(format!("bad usage line `{line}`")),
        }
    }

    /// Bytes in the daemon's WAL directory: everything it has journaled.
    pub fn wal_bytes(&self) -> Result<u64, String> {
        let entries = std::fs::read_dir(&self.wal_dir)
            .map_err(|e| format!("{}: {e}", self.wal_dir.display()))?;
        let mut total = 0;
        for entry in entries {
            let meta = entry
                .and_then(|e| e.metadata())
                .map_err(|e| format!("{}: {e}", self.wal_dir.display()))?;
            total += meta.len();
        }
        Ok(total)
    }

    /// Shut the daemon down gracefully; returns its job spans.
    pub fn stop(mut self) -> Result<Vec<JobSpans>, String> {
        self.command("stop")?;
        let mut spans = Vec::new();
        loop {
            let line = self.read_line()?;
            if let Some(json) = line.strip_prefix("span ") {
                spans.push(serde_json::from_str(json).map_err(|e| format!("span line: {e}"))?);
            } else if line == "bye" {
                break;
            } else {
                return Err(format!("unexpected daemon line `{line}`"));
            }
        }
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(spans)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A no-op after a graceful `stop`; on error paths it makes sure no
        // daemon outlives the benchmark.
        let _ = self.child.kill();
        let _ = self.child.wait();
        remove_dir(&self.wal_dir);
    }
}

/// Remove a directory tree, ignoring its absence.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
