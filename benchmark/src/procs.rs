//! Process-level observation from outside: `/proc` counters and the
//! redis-lite child server.
//!
//! CPU time and peak memory are read from `/proc/<pid>` rather than from
//! `RunReport::process_time`, which counts time parked in `pop` as active.
//! The redis-lite server runs as a child process of its own so that its CPU
//! and memory can be told apart from the workflow's.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It
/// is 100 on every Linux ABI; reading it properly needs `sysconf`, which std
/// does not expose.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by `pid`, all threads (exited
/// ones included). Zero when `/proc` cannot be read.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set size (`VmHWM`) of `pid` in MiB; zero when unreadable.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This binary, for spawning its own hidden subcommands.
pub fn self_command() -> Command {
    Command::new(std::env::current_exe().expect("the running binary has a path"))
}

/// A redis-lite server in a child process (`serve` subcommand). Killed and
/// reaped on drop, so a panicking benchmark leaves nothing behind; the child
/// also exits by itself when its stdin closes.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and waits for the address it bound.
    pub fn spawn() -> Result<ServerProc, String> {
        let mut child = self_command()
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the redis-lite child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line.trim().parse::<SocketAddr>().ok(),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "redis-lite child printed no address (got {line:?})"
            ));
        };
        Ok(ServerProc { child, addr })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `serve` subcommand: bind a free port, print the address, serve until
/// stdin reaches end of file (the parent exited or dropped us).
pub fn serve() -> Result<(), String> {
    let mut server = dispel4py::redis_lite::server::Server::start(0)
        .map_err(|e| format!("cannot bind redis-lite: {e}"))?;
    println!("{}", server.addr());
    let mut sink = String::new();
    while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_counters_are_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid) > 0.0);
        assert!(cpu_seconds(pid) >= 0.0);
        assert_eq!(cpu_seconds(u32::MAX), 0.0);
    }
}
