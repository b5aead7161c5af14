//! The `toppriv-serve` child process and `/proc` readings.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `toppriv-serve --tcp 127.0.0.1:0`. Dropping it kills the child
/// and waits for it, so no exit path — error return or panic — leaves a
/// server behind.
pub struct Server {
    child: Child,
    stderr_drain: Option<JoinHandle<()>>,
    pub addr: String,
    pub spawned_at: Instant,
}

impl Server {
    /// Starts the server and waits for its `listening on` line.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Server, String> {
        let spawned_at = Instant::now();
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // Keeps reading after the address is found: a full stderr pipe would
        // block the server.
        let stderr_drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            stderr_drain: Some(stderr_drain),
            addr: String::new(),
            spawned_at,
        };
        // Dropping `server` on the error path kills the child.
        server.addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "server never printed its listening address".to_string())?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.stderr_drain.take() {
            let _ = handle.join();
        }
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times.
pub fn clock_ticks_per_s() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|&hz| hz > 0.0)
        .unwrap_or(100.0)
}

/// `utime + stime` of a process in ms (`pid` 0 means this process).
pub fn cpu_ms(pid: u32, ticks_per_s: f64) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {i} missing"))
    };
    // After ')': state is field 0, utime 11, stime 12.
    Ok((tick(11)? + tick(12)?) * 1000.0 / ticks_per_s)
}

/// Peak resident set (`VmHWM`) of a process in MB (`pid` 0 means this one).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

fn proc_path(pid: u32, file: &str) -> String {
    if pid == 0 {
        format!("/proc/self/{file}")
    } else {
        format!("/proc/{pid}/{file}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_rss() {
        let hz = clock_ticks_per_s();
        assert!(hz >= 1.0);
        assert!(cpu_ms(0, hz).unwrap() >= 0.0);
        assert!(peak_rss_mb(0).unwrap() > 0.5);
        assert!(cpu_ms(u32::MAX, hz).is_err());
    }
}
